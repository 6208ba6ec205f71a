package numa

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nvdimmc/internal/pool"
	"nvdimmc/internal/replay"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// TestFabricRunRetainsNoRecords: the shared driver hands its sink every
// fabric record, in the order a twin driven through the public
// Submit/Step/Poll surface polls them, and leaves nothing buffered.
func TestFabricRunRetainsNoRecords(t *testing.T) {
	const count = 500
	gcfg := func(f *Fabric) openloop.Config { return fabricTenants(f, 5, false) }

	f := newTestFabric(t, 2, 1)
	gen, err := openloop.New(gcfg(f))
	if err != nil {
		t.Fatal(err)
	}
	var sunk []pool.Completion
	if err := pool.RunOpenLoop(f, gen, count, func(c pool.Completion) { sunk = append(sunk, c) }); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != count {
		t.Fatalf("sink saw %d of %d records", len(sunk), count)
	}
	if recs := f.Poll(nil, 0); len(recs) != 0 {
		t.Fatalf("Run left %d records buffered", len(recs))
	}

	// The twin submits the same stream through Submit at each epoch
	// boundary and polls after every Step.
	h := newTestFabric(t, 2, 1)
	gen, err = openloop.New(gcfg(h))
	if err != nil {
		t.Fatal(err)
	}
	var polled []pool.Completion
	next := gen.Next()
	for i := 0; i < count || !h.Quiesced(); {
		for ; i < count && next.Arrival < h.Now()+h.Epoch(); i++ {
			h.Submit(next)
			if i+1 < count {
				next = gen.Next()
			}
		}
		h.Step()
		polled = h.Poll(polled, 0)
	}
	if !reflect.DeepEqual(sunk, polled) {
		t.Fatalf("sink order diverges from the polled twin (%d vs %d records)", len(sunk), len(polled))
	}
}

// TestFabricTypedSentinels: the socket-level sentinels are typed at the
// fabric and only there; the shared ledger takes the layer's list.
func TestFabricTypedSentinels(t *testing.T) {
	for _, sentinel := range []error{ErrSocketEvacuated, ErrFabricDegraded, pool.ErrPoolDegraded, pool.ErrMemberQuarantined} {
		err := fmt.Errorf("piece: %w", sentinel)
		var l pool.Ledger
		l.Submit(true)
		if o := l.Retire(true, false, err, fabricTyped); o != pool.OutcomeFailed || l.WritesFailed != 1 || l.WritesLost() != 0 {
			t.Fatalf("%v: outcome %v, writes failed %d lost %d", sentinel, o, l.WritesFailed, l.WritesLost())
		}
		if err := l.Check(); err != nil {
			t.Fatalf("%v: %v", sentinel, err)
		}
	}
}

// TestFabricReplayMatchesPool is the differential test over the shared
// driver: a 1-socket fabric and a bare pool built from that socket's own
// config replay the same trace through replay.Drive and must end with
// identical ledgers, latency histograms and elapsed time. Fault-free on
// purpose: the fabric retries pool failures, the bare pool cannot.
func TestFabricReplayMatchesPool(t *testing.T) {
	for _, c := range []struct {
		admission pool.AdmissionPolicy
		deadline  sim.Duration
		dropped   func(pool.Ledger) uint64
	}{
		{pool.AdmitBlock, 30 * sim.Microsecond, func(l pool.Ledger) uint64 { return l.Expired }},
		{pool.AdmitDeadlineAware, 30 * sim.Microsecond, func(l pool.Ledger) uint64 { return l.Shed }},
	} {
		t.Run(c.admission.String(), func(t *testing.T) {
			f := newTestFabric(t, 1, 1, func(cfg *Config) { cfg.Pool.Admission = c.admission })
			p, err := pool.New(f.Socket(0).Cfg)
			if err != nil {
				t.Fatal(err)
			}
			gcfg := fabricTenants(f, 9, false)
			gcfg.RatePerSec = 4e6
			gcfg.Deadline = c.deadline
			gen, err := openloop.New(gcfg)
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			w, err := replay.NewWriter(&trace, replay.Binary)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1500; i++ {
				if err := w.Record(gen.Next()); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for _, pl := range []pool.Plane{f, p} {
				rd, err := replay.NewReader(bytes.NewReader(trace.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := replay.Drive(pl, rd, 0); err != nil {
					t.Fatalf("%T: %v", pl, err)
				}
			}
			if err := f.CheckHealth(); err != nil {
				t.Fatal(err)
			}
			if err := p.CheckHealth(); err != nil {
				t.Fatal(err)
			}
			fl, pl := f.Ledger(), p.Ledger()
			if fl != pl {
				t.Fatalf("ledgers differ:\nfabric %+v\npool   %+v", fl, pl)
			}
			if fl.Completed == 0 || c.dropped(fl) == 0 {
				t.Fatalf("trace does not exercise both paths: %+v", fl)
			}
			fs, ps := f.Stats(), p.Stats()
			if fs.LatRemote.Count() != 0 {
				t.Fatalf("1-socket fabric recorded %d remote completions", fs.LatRemote.Count())
			}
			hist := func(h interface {
				Count() uint64
				Percentile(float64) sim.Duration
				Max() sim.Duration
			}) string {
				return fmt.Sprintf("n=%d p50=%v p99=%v max=%v", h.Count(), h.Percentile(50), h.Percentile(99), h.Max())
			}
			if a, b := hist(fs.Lat), hist(ps.Lat); a != b {
				t.Fatalf("latency histograms differ: fabric %s, pool %s", a, b)
			}
			if a, b := f.Now(), p.Now().Sub(p.Origin()); a != b {
				t.Fatalf("elapsed differs: fabric %v, pool %v", a, b)
			}
			t.Logf("%s: %d completed, %d expired, %d shed", c.admission, fl.Completed, fl.Expired, fl.Shed)
		})
	}
}
