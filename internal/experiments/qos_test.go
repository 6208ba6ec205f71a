package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"nvdimmc/internal/pool"
)

// TestQoSIdenticalAcrossWorkers pins the QoS campaign's full determinism
// matrix: worker counts 1/2/8 crossed with the lookahead scheduler on and
// off must table byte-identical output and deeply-equal results — the
// token-bucket refills, DRR dispatch and per-tenant histograms all replay
// exactly under sharding and quiet-epoch batching. The -short lane keeps a
// single serial-vs-sharded-lockstep pair so the contract stays race-checked.
func TestQoSIdenticalAcrossWorkers(t *testing.T) {
	run := func(parallel int, lockstep bool) (QoSResult, string) {
		var buf bytes.Buffer
		res, err := QoS(Options{Quick: true, Out: &buf, Parallel: parallel,
			DisableLookahead: lockstep})
		if err != nil {
			t.Fatalf("parallel=%d lockstep=%v: %v", parallel, lockstep, err)
		}
		return res, buf.String()
	}
	type variant struct {
		parallel int
		lockstep bool
	}
	variants := []variant{{2, false}, {8, false}, {1, true}, {2, true}, {8, true}}
	if testing.Short() {
		variants = []variant{{2, true}}
	}
	baseRes, baseOut := run(1, false)
	for _, v := range variants {
		res, out := run(v.parallel, v.lockstep)
		if out != baseOut {
			t.Fatalf("parallel=%d lockstep=%v diverged from serial lookahead:\n--- serial ---\n%s\n--- variant ---\n%s",
				v.parallel, v.lockstep, baseOut, out)
		}
		if !reflect.DeepEqual(res, baseRes) {
			t.Fatalf("parallel=%d lockstep=%v changed campaign results: %+v vs %+v",
				v.parallel, v.lockstep, res, baseRes)
		}
	}
}

// TestQoSCampaignGates re-asserts the campaign's acceptance shape on the
// quick table (the façade enforces the same bounds): fault-free isolation on
// holds every light SLO while throttling the hot tenant to its bucket;
// fault-free isolation off loses at least one light; nothing is lost
// anywhere.
func TestQoSCampaignGates(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick campaign; identity test covers -short")
	}
	res, err := QoS(Options{Quick: true, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.AckedLostTotal() != 0 {
		t.Fatalf("%d acked writes lost", res.AckedLostTotal())
	}
	on := res.Find(true, "none")
	if on == nil {
		t.Fatal("no fault-free isolation-on point")
	}
	if n := on.LightViolations(); n != 0 {
		t.Fatalf("isolation on: %d light tenants missed the SLO (worst p99 %v, target %v)",
			n, on.WorstLightP99(), res.SLOTarget)
	}
	if on.HotThrottled() == 0 {
		t.Fatal("isolation on: hot tenant at 4x its bucket rate never throttled")
	}
	if on.HotRatio < 0.75 || on.HotRatio > 1.25 {
		t.Fatalf("isolation on: hot goodput %.2fx its bucket rate, outside 0.75-1.25", on.HotRatio)
	}
	off := res.Find(false, "none")
	if off == nil {
		t.Fatal("no fault-free isolation-off point")
	}
	if off.LightViolations() == 0 {
		t.Fatalf("isolation off: no light tenant violated (worst p99 %v, target %v) — control arm lost",
			off.WorstLightP99(), res.SLOTarget)
	}
	if off.HotThrottled() != 0 {
		t.Fatalf("isolation off still throttled %d hot requests", off.HotThrottled())
	}
}

// TestQoSResultAccessors exercises the QoS verdict accessors on a
// hand-built result so the -short lane covers the façade's gate inputs
// without running a campaign; the shared totals are TestCampaignAccessors'.
func TestQoSResultAccessors(t *testing.T) {
	res := QoSResult{Campaign: Campaign[QoSPoint]{Rows: []QoSPoint{
		{Isolation: true, Fault: "none", Tenants: []QoSTenantRow{
			{Name: "hot", Outcome: Outcome{Ledger: pool.Ledger{Throttled: 7}, Lat: lat()}},
			{Name: "light0", Outcome: Outcome{Lat: lat(10)}},
			{Name: "light1", Outcome: Outcome{Lat: lat(30)}, Violated: true},
		}},
		{Isolation: false, Fault: "none", Tenants: []QoSTenantRow{
			{Name: "hot", Outcome: Outcome{Lat: lat()}},
			{Name: "light0", Outcome: Outcome{Lat: lat(50)}, Violated: true},
		}},
	}}}
	on := res.Find(true, "none")
	if on == nil || on.HotThrottled() != 7 {
		t.Fatalf("Find(true, none) = %+v, want hot throttled 7", on)
	}
	if got := on.LightViolations(); got != 1 {
		t.Fatalf("LightViolations() = %d, want 1", got)
	}
	if got := on.WorstLightP99(); got != 30 {
		t.Fatalf("WorstLightP99() = %v, want 30", got)
	}
	if res.Find(true, "program") != nil {
		t.Fatal("Find(true, program) should be nil on a two-point table")
	}
}
