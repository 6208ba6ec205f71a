package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// TestNumaParallelIdentical: the fabric campaign must print a byte-identical
// table and return an identical result struct at any -parallel setting.
// Points are independent seeded fabrics, so this checks the shard fan-out
// plus every per-point seed split (socket pools, fault schedules, workload)
// for worker-count leakage.
func TestNumaParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign twice; covered unshortened in the race lane")
	}
	run := func(parallel int) (NumaResult, string) {
		var buf bytes.Buffer
		res, err := Numa(Options{Quick: true, Out: &buf, Parallel: parallel})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		// The idle-segment wall clocks are host-time (documented
		// nondeterministic); everything else must match exactly.
		res.IdleWallLockstepMS, res.IdleWallLookaheadMS = 0, 0
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

// TestNumaCampaignLattice pins the fabric campaign's robustness claims:
// zero acked-write loss and zero post-evacuation submissions at every
// point, every killed socket evacuated with its chunks re-homed and pages
// migrated, no transiently slow or degraded socket condemned, and no point's
// availability collapsing behind cross-socket failover.
func TestNumaCampaignLattice(t *testing.T) {
	res, err := Numa(Options{Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points() < 9 {
		t.Fatalf("campaign ran %d points, want >= 9", res.Points())
	}
	if got := res.AckedLostTotal(); got != 0 {
		t.Errorf("%d acked writes lost across the campaign", got)
	}
	if got := res.PostEvacTotal(); got != 0 {
		t.Errorf("%d foreground submissions reached evacuating sockets", got)
	}
	if err := res.CheckLattice(); err != nil {
		t.Error(err)
	}
	if res.Evacuations() == 0 {
		t.Fatal("no campaign point evacuated a socket")
	}
	for _, r := range res.Rows {
		if r.Kind == "socket-kill" && r.MigPages == 0 {
			t.Errorf("point %d: killed socket %d migrated no resident pages", r.Point, r.Victim)
		}
	}
	if min := res.MinAvailability(); min < 0.5 {
		t.Fatalf("worst-point availability %.2f%% — a fault mode collapsed the fabric", 100*min)
	}
}
