package experiments

import (
	"bytes"
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/replay"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// The replay campaign caps the trace front-end: a live pool run under an
// overloaded, deadlined, shedding workload is captured into both trace
// formats by the generator's capture hook, then each trace is replayed
// through fresh pools across every execution variant — 1, 2 and 8
// member-build workers, lookahead scheduler on and off. The claim under
// test is the determinism contract end to end: every replay reproduces the
// live run's observable statistics byte for byte (latency histograms,
// per-channel meters, outcome counters — the works), with zero re-timed
// records, and the binary format carries the same stream at a fraction of
// the text size.

// replayWorkerCounts are the member-build worker settings each trace replays
// under.
var replayWorkerCounts = []int{1, 2, 8}

// ReplayVariant is one replay execution: a (format, lockstep, workers)
// combination driven from the captured trace.
type ReplayVariant struct {
	Point    int
	Format   replay.Format
	Lockstep bool
	Workers  int
	// Outcome is the replay pool's ledger and latency histogram.
	Outcome
	// Matched reports whether the replay's full stats snapshot equals the
	// live run's.
	Matched bool
	// Retimed counts reader-side arrival clamps (must be 0: the capture
	// stream is already non-decreasing).
	Retimed int
	// Snapshot is the replay's serialized stats, kept for the divergence
	// report when Matched is false.
	Snapshot string
}

// ReplayResult is the campaign table.
type ReplayResult struct {
	Ops         int
	TextBytes   int
	BinaryBytes int
	// Live is the captured run's outcome; the replays must reproduce it
	// exactly, LiveSnap byte for byte.
	Live     Outcome
	LiveSnap string
	Campaign[ReplayVariant]
}

// Divergent counts replays whose snapshot differed from the live run.
func (r ReplayResult) Divergent() int {
	return count(r.Rows, func(v ReplayVariant) bool { return !v.Matched })
}

// RetimedTotal sums reader-side arrival clamps across every replay.
func (r ReplayResult) RetimedTotal() int {
	return total(r.Rows, func(v ReplayVariant) int { return v.Retimed })
}

// CompactionX is the text-to-binary trace size ratio.
func (r ReplayResult) CompactionX() float64 {
	if r.BinaryBytes == 0 {
		return 0
	}
	return float64(r.TextBytes) / float64(r.BinaryBytes)
}

// replayPoint is the captured run: the campaign shape over the overload
// member, without a spare (no fault is armed, so the breakers never see a
// failed fragment), built on workers, with bounded, shedding admission —
// so the captured run exercises completions, late completions, sheds and
// expiries all at once. Its offered load is well past the small members'
// service rate over the whole capacity (cache misses spill to NAND), with
// a hard per-request budget: the run sheds at admission and expires
// queued stragglers, so the trace encodes every outcome class. The replay
// variants build the same plane, on their own worker counts.
func replayPoint(reqs, workers int, lockstep bool) Point {
	p := campaignPoint("replay capture", core.OverloadConfig(), sim.SplitSeed(23, "replay/pool"), sim.SplitSeed(23, "replay/load"), 0, lockstep)
	p.Pool.Workers, p.Pool.Spares = workers, 0
	p.Pool.Admission, p.Pool.PendingCap = pool.AdmitShedNewest, 16
	p.Load.RatePerSec, p.Load.Deadline = 1e6, 64*core.OverloadConfig().TREFI
	p.Load.Tenants = []openloop.Tenant{
		{Name: "kv", Dist: openloop.Zipfian, Weight: 3, ReadPct: 80},
		{Name: "log", Dist: openloop.Uniform, Weight: 1, ReadPct: 40},
	}
	p.Reqs = reqs
	return p
}

// replaySnapshot serializes every externally observable pool stat; two runs
// are byte-identical iff their snapshots match.
func replaySnapshot(s pool.Stats) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "req=%d/%d wracked=%d epochs=%d heldpeak=%d shed=%d expired=%d failed=%d late=%d throttled=%d\n",
		s.Completed, s.Submitted, s.WritesAcked, s.Epochs, s.HeldPeak,
		s.Shed, s.Expired, s.Failed, s.CompletedLate, s.Throttled)
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

// replayCapture drives the live run, teeing the offered stream into both
// trace formats at once, and returns the traces plus the live stats.
func replayCapture(reqs int, lockstep bool) (text, binary []byte, live pool.Stats, err error) {
	pt := replayPoint(reqs, 1, lockstep)
	pl, gen, err := pt.build()
	if err != nil {
		return nil, nil, live, err
	}
	var tbuf, bbuf bytes.Buffer
	tw, err := replay.NewWriter(&tbuf, replay.Text)
	if err != nil {
		return nil, nil, live, err
	}
	bw, err := replay.NewWriter(&bbuf, replay.Binary)
	if err != nil {
		return nil, nil, live, err
	}
	trec, brec := replay.NewRecorder(tw), replay.NewRecorder(bw)
	gen.SetCapture(func(q openloop.Request) { trec.Record(q); brec.Record(q) })
	if _, err := runPoint(pt.Label, pl, gen, reqs, nil); err != nil {
		return nil, nil, live, err
	}
	if err := trec.Close(); err != nil {
		return nil, nil, live, fmt.Errorf("replay capture (text): %w", err)
	}
	if err := brec.Close(); err != nil {
		return nil, nil, live, fmt.Errorf("replay capture (binary): %w", err)
	}
	if trec.Records() != reqs || brec.Records() != reqs {
		return nil, nil, live, fmt.Errorf("replay capture: recorded %d/%d of %d requests",
			trec.Records(), brec.Records(), reqs)
	}
	return tbuf.Bytes(), bbuf.Bytes(), pl.(*pool.Pool).Stats(), nil
}

// replayVariant replays one (format, lockstep, workers) combination.
func replayVariant(pt, reqs int, traces map[replay.Format][]byte, liveSnap string) (ReplayVariant, error) {
	format := replay.Text
	if pt%2 == 1 {
		format = replay.Binary
	}
	lockstep := (pt/2)%2 == 1
	workers := replayWorkerCounts[pt/4]
	row := ReplayVariant{Point: pt, Format: format, Lockstep: lockstep, Workers: workers}

	pl, err := replayPoint(reqs, workers, lockstep).plane()
	if err != nil {
		return row, fmt.Errorf("replay variant %d: %w", pt, err)
	}
	p := pl.(*pool.Pool)
	rd, err := replay.NewReader(bytes.NewReader(traces[format]))
	if err != nil {
		return row, fmt.Errorf("replay variant %d: %w", pt, err)
	}
	st, err := replay.Drive(p, rd, 0)
	if err != nil {
		return row, fmt.Errorf("replay variant %d (%v lockstep=%v workers=%d): %w",
			pt, format, lockstep, workers, err)
	}
	if st.Ops != reqs {
		return row, fmt.Errorf("replay variant %d: drove %d of %d records", pt, st.Ops, reqs)
	}
	if err := p.CheckHealth(); err != nil {
		return row, fmt.Errorf("replay variant %d: %w", pt, err)
	}
	row.Retimed = st.Retimed
	s := p.Stats()
	row.Outcome = Outcome{Ledger: s.Ledger, Lat: s.Lat}
	row.Snapshot = replaySnapshot(s)
	row.Matched = row.Snapshot == liveSnap
	return row, nil
}

// Replay is the trace-replay determinism campaign: capture one live
// overloaded run into both formats, then replay each across worker counts
// and scheduler modes and demand byte-identical stats everywhere. Variants
// fan across o.Parallel shards; the merged table is byte-identical at any
// worker count.
func Replay(o Options) (ReplayResult, error) {
	var res ReplayResult
	reqs := o.pick(2000, 600)
	res.Ops = reqs

	text, binary, live, err := replayCapture(reqs, o.DisableLookahead)
	if err != nil {
		return res, err
	}
	res.TextBytes, res.BinaryBytes = len(text), len(binary)
	res.Live, res.LiveSnap = Outcome{Ledger: live.Ledger, Lat: live.Lat}, replaySnapshot(live)
	traces := map[replay.Format][]byte{replay.Text: text, replay.Binary: binary}

	points := 2 * 2 * len(replayWorkerCounts)
	res.Rows, err = runShards(points, o.workers(), func(pt int) (ReplayVariant, error) {
		return replayVariant(pt, reqs, traces, res.LiveSnap)
	})
	if err != nil {
		return res, err
	}

	o.printf("== Replay: %d-op capture -> %d replay variants (formats x lockstep x workers) ==\n", reqs, points)
	o.printf("  live run: completed=%d (late %d) shed=%d expired=%d\n",
		res.Live.Completed, res.Live.CompletedLate, res.Live.Shed, res.Live.Expired)
	o.printf("  trace: text %d B, binary %d B (%.1fx compaction, %.1f B/op)\n",
		res.TextBytes, res.BinaryBytes, res.CompactionX(), float64(res.BinaryBytes)/float64(reqs))
	for _, v := range res.Rows {
		verdict := "byte-identical"
		if !v.Matched {
			verdict = "DIVERGED"
		}
		o.printf("  pt%02d %-6v lockstep=%-5v workers=%d retimed=%d %s\n",
			v.Point, v.Format, v.Lockstep, v.Workers, v.Retimed, verdict)
	}
	o.printf("  %d/%d variants reproduce the live run exactly\n", points-res.Divergent(), points)
	if d := res.Divergent(); d > 0 {
		for _, v := range res.Rows {
			if !v.Matched {
				return res, fmt.Errorf("replay: variant %d (%v lockstep=%v workers=%d) diverged from the live run:\n--- live ---\n%s--- replay ---\n%s",
					v.Point, v.Format, v.Lockstep, v.Workers, res.LiveSnap, v.Snapshot)
			}
		}
	}
	return res, nil
}
