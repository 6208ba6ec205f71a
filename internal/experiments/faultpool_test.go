package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// TestFaultPoolParallelIdentical: the fault campaign must print a
// byte-identical table and return an identical result struct at any
// -parallel setting. Points are independent seeded pools, so this checks
// the shard fan-out plus every per-point seed split (member RNG, fault
// schedules, workload) for worker-count leakage.
func TestFaultPoolParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign twice; covered unshortened in the race lane")
	}
	run := func(parallel int) (FaultPoolResult, string) {
		var buf bytes.Buffer
		res, err := FaultPool(Options{Quick: true, Out: &buf, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res, buf.String()
	}
	serialRes, serialOut := run(1)
	res, out := run(4)
	if out != serialOut {
		t.Fatalf("parallel output diverged:\n--- serial ---\n%s\n--- parallel ---\n%s", serialOut, out)
	}
	if !reflect.DeepEqual(res, serialRes) {
		t.Fatalf("parallel results diverged: %+v vs %+v", res, serialRes)
	}
}

// TestFaultPoolConservation pins the campaign's robustness claims: >= 32
// points, zero acked-write loss and zero post-quarantine dispatches at
// every point, at least one point exercising the full failover+rebuild
// path, and no point's availability collapsing.
func TestFaultPoolConservation(t *testing.T) {
	res, err := FaultPool(Options{Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points() < 32 {
		t.Fatalf("campaign ran %d points, want >= 32", res.Points())
	}
	for _, r := range res.Rows {
		if lost := r.WritesLost(); lost != 0 {
			t.Errorf("point %d (%s m%d): %d acked writes lost", r.Point, r.Kind, r.Victim, lost)
		}
		if r.PostQuarantine != 0 {
			t.Errorf("point %d (%s m%d): %d post-quarantine dispatches", r.Point, r.Kind, r.Victim, r.PostQuarantine)
		}
	}
	if res.Failovers() == 0 {
		t.Fatal("no campaign point engaged the hot spare")
	}
	if min := res.MinAvailability(); min < 0.5 {
		t.Fatalf("worst-point availability %.2f%% — a fault mode collapsed the pool", 100*min)
	}
}
