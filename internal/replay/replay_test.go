package replay

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nvdimmc/internal/core"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/workload/openloop"
)

// testMember is the shrunken pool-test module shape: capacity close to its
// cache so runs stay fast.
func testMember() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	return cfg
}

func testPool(t *testing.T, workers int, lockstep bool) *pool.Pool {
	t.Helper()
	p, err := pool.New(pool.Config{
		Channels:         3,
		DIMMsPerChannel:  1,
		Interleave:       4096,
		Member:           testMember(),
		Workers:          workers,
		Seed:             7,
		PrefillPages:     -1,
		DisableLookahead: lockstep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// snapshot serializes every externally observable pool stat; two runs are
// byte-identical iff their snapshots match.
func snapshot(s pool.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req=%d/%d wracked=%d epochs=%d heldpeak=%d shed=%d expired=%d failed=%d late=%d\n",
		s.Completed, s.Submitted, s.WritesAcked, s.Epochs, s.HeldPeak,
		s.Shed, s.Expired, s.Failed, s.CompletedLate)
	fmt.Fprintf(&b, "lat n=%d mean=%v min=%v max=%v p50=%v p99=%v p999=%v\n",
		s.Lat.Count(), s.Lat.Mean(), s.Lat.Min(), s.Lat.Max(),
		s.Lat.Percentile(50), s.Lat.Percentile(99), s.Lat.Percentile(99.9))
	fmt.Fprintf(&b, "meter ops=%d bytes=%d elapsed=%v\n", s.Meter.Ops(), s.Meter.Bytes(), s.Meter.Elapsed())
	fmt.Fprintf(&b, "ctr %s\n", s.Ctr.String())
	for i, ch := range s.PerChannel {
		fmt.Fprintf(&b, "ch%d n=%d p99=%v bytes=%d heldHW=%d queueHW=%d svc=%v\n",
			i, ch.Lat.Count(), ch.Lat.Percentile(99), ch.Meter.Bytes(),
			ch.HeldHW, ch.QueueHW, ch.ServiceEWMA)
	}
	return b.String()
}

// captureRun drives count openloop requests through a live pool while the
// capture hook records them into a trace of the given format, returning the
// trace bytes and the live run's snapshot.
func captureRun(t *testing.T, f Format, count int) ([]byte, string) {
	t.Helper()
	p := testPool(t, 1, false)
	gen, err := openloop.New(openloop.Config{
		Seed:       42,
		RatePerSec: 3e5, // fast enough to queue, slow enough to interleave epochs
		Tenants: []openloop.Tenant{
			{Name: "kv", Dist: openloop.Zipfian, Weight: 3, ReadPct: 80, Footprint: p.CachedFootprint() / 2},
			{Name: "log", Dist: openloop.Uniform, Weight: 1, ReadPct: -1,
				Footprint: p.CachedFootprint() / 2, Offset: p.CachedFootprint() / 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w)
	gen.SetCapture(rec.Record)
	if err := pool.RunOpenLoop(p, gen, count, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Records() != count {
		t.Fatalf("captured %d of %d", rec.Records(), count)
	}
	return buf.Bytes(), snapshot(p.Stats())
}

// TestReplayMatchesLiveRun is the capture fidelity claim: replaying a
// captured trace reproduces the live run's stats byte for byte, and does so
// at 1, 2 and 8 workers, lockstep and lookahead, in both trace formats.
func TestReplayMatchesLiveRun(t *testing.T) {
	const count = 250
	for _, f := range []Format{Text, Binary} {
		trace, live := captureRun(t, f, count)
		for _, lockstep := range []bool{false, true} {
			for _, workers := range []int{1, 2, 8} {
				p := testPool(t, workers, lockstep)
				rd, err := NewReader(bytes.NewReader(trace))
				if err != nil {
					t.Fatal(err)
				}
				st, err := Drive(p, rd, 0)
				if err != nil {
					t.Fatalf("%v lockstep=%v workers=%d: %v", f, lockstep, workers, err)
				}
				if st.Ops != count || st.Retimed != 0 {
					t.Fatalf("%v: drove %d ops (%d retimed), want %d/0", f, st.Ops, st.Retimed, count)
				}
				if err := p.CheckHealth(); err != nil {
					t.Fatal(err)
				}
				if got := snapshot(p.Stats()); got != live {
					t.Fatalf("%v lockstep=%v workers=%d: replay diverged from live run:\n--- live ---\n%s--- replay ---\n%s",
						f, lockstep, workers, live, got)
				}
			}
		}
	}
}

// TestDriveLimit bounds a replay mid-trace.
func TestDriveLimit(t *testing.T) {
	trace, _ := captureRun(t, Binary, 100)
	p := testPool(t, 1, false)
	rd, err := NewReader(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Drive(p, rd, 40)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 40 {
		t.Fatalf("drove %d, want 40", st.Ops)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Submitted != 40 {
		t.Fatalf("submitted %d, want 40", s.Submitted)
	}
}

// TestDriveRejectsOutOfRange: a trace addressing beyond the pool fails the
// drive typed instead of wrapping.
func TestDriveRejectsOutOfRange(t *testing.T) {
	p := testPool(t, 1, false)
	trace := textHeader + "\n" +
		fmt.Sprintf("0 r %d 4096 0 0\n", p.Capacity())
	rd, err := NewReader(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(p, rd, 0); err == nil {
		t.Fatal("out-of-range trace replayed cleanly")
	}
}

// TestDriveDeadlines: a trace carrying deadlines exercises the plane's
// expiry path under replay — outcomes must still conserve.
func TestDriveDeadlines(t *testing.T) {
	p := testPool(t, 2, false)
	var b strings.Builder
	b.WriteString(textHeader + "\n")
	// A burst of same-instant arrivals with a 1 ns deadline: most expire.
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&b, "0 w %d 4096 0 1000\n", int64(i)*4096)
	}
	rd, err := NewReader(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Drive(p, rd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 64 {
		t.Fatalf("drove %d, want 64", st.Ops)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Completed+s.Expired+s.Shed+s.Failed != 64 {
		t.Fatalf("outcomes %d+%d+%d+%d != 64", s.Completed, s.Expired, s.Shed, s.Failed)
	}
	if s.Expired == 0 && s.CompletedLate == 0 {
		t.Fatal("1ns deadlines produced neither expiries nor late completions")
	}
}
