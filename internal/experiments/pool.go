package experiments

import (
	"fmt"
	"time"

	"nvdimmc/internal/core"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/report"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// PoolPoint is one (channels, interleave) cell of the socket-scaling table.
type PoolPoint struct {
	Channels     int
	InterleaveKB int
	MBps         float64
	Outcome
	HeldPeak int
}

// PoolResult is the channel-scaling table (the paper's §VIII deployment
// projected from its §VI single-module measurements), plus the idle-heavy
// harness-performance measurement (lookahead scheduler vs naive lockstep)
// on a 6-channel pool.
type PoolResult struct {
	Campaign[PoolPoint]
	IdleSegment
}

// IdleSegment is a harness-performance measurement: an idle-heavy rated
// load (mean inter-arrival ~64 epochs) run twice on identical seeds —
// naive lockstep, then the lookahead scheduler — with identical simulated
// outputs (the harness errors otherwise). IdleEpochs counts the run's
// epochs. The Wall fields are host wall-clock (nondeterministic; they reach
// the bench snapshot through advisory headlines and are never printed, so
// experiment stdout stays byte-comparable).
type IdleSegment struct {
	IdleReqs            int
	IdleEpochs          int
	IdleWallLockstepMS  float64
	IdleWallLookaheadMS float64
}

// IdleSpeedupX returns the lockstep/lookahead wall-clock ratio of the
// idle-heavy segment (0 until measured).
func (r IdleSegment) IdleSpeedupX() float64 {
	if r.IdleWallLookaheadMS <= 0 {
		return 0
	}
	return r.IdleWallLockstepMS / r.IdleWallLookaheadMS
}

// measureIdle runs the idle-heavy segment pt in both scheduler modes,
// lockstep first, and errors if their fingerprints differ. fingerprint
// returns a run's fingerprint and epoch count; the wall time is the run
// phase's alone, build and prefill excluded.
func measureIdle(pt Point, fingerprint func(Plane) (string, int)) (IdleSegment, string, error) {
	seg := IdleSegment{IdleReqs: pt.Reqs}
	var fps [2]string
	for i, wall := range []*float64{&seg.IdleWallLockstepMS, &seg.IdleWallLookaheadMS} {
		pt.Pool.DisableLookahead = i == 0
		pl, gen, err := pt.build()
		if err != nil {
			return seg, "", err
		}
		start := time.Now()
		if _, err := runPoint(pt.Label, pl, gen, pt.Reqs, nil); err != nil {
			return seg, "", err
		}
		*wall = float64(time.Since(start).Microseconds()) / 1000
		fps[i], seg.IdleEpochs = fingerprint(pl)
	}
	if fps[0] != fps[1] {
		return IdleSegment{}, "", fmt.Errorf("%s: lookahead diverged from lockstep:\n  lockstep:  %s\n  lookahead: %s",
			pt.Label, fps[0], fps[1])
	}
	return seg, fps[0], nil
}

// At returns the cell for a channel count and interleave granularity (KB).
func (r PoolResult) At(channels, interleaveKB int) PoolPoint {
	for _, p := range r.Rows {
		if p.Channels == channels && p.InterleaveKB == interleaveKB {
			return p
		}
	}
	return PoolPoint{}
}

// ScalingX returns the 1->6 channel read-bandwidth scaling factor at 4 KB
// interleave.
func (r PoolResult) ScalingX() float64 {
	one := r.At(1, 4).MBps
	if one == 0 {
		return 0
	}
	return r.At(6, 4).MBps / one
}

// poolPoint is the pool campaign's socket, channels x 1 DIMM interleaved
// at gran, its members built and prefilled on o.Parallel workers: the
// standard scaled module at full scale, a further-shrunken one (4 MB
// cache, still big enough to hold whole 2 MB stripes) for -quick. It runs
// its two-tenant load over the cached footprint: a zipfian read-mostly
// key-value tenant over the low half, a uniform mixed tenant over the high
// half. The halves are exact, so on a footprint of an odd page count the
// high half starts mid-page.
func poolPoint(o Options, label string, channels int, gran int64, loadSeed uint64, rate float64) Point {
	member := core.DefaultConfig()
	if o.Quick {
		member.CacheBytes, member.NAND.BlocksPerDie = 4<<20, 32
	}
	return Point{
		Label: label,
		Pool: pool.Config{
			Channels:         channels,
			DIMMsPerChannel:  1,
			Interleave:       gran,
			Member:           member,
			Workers:          o.workers(),
			Seed:             7,
			PrefillPages:     -1,
			WalkFootprint:    15 << 30,
			DisableLookahead: o.DisableLookahead,
		},
		Load: openloop.Config{
			Seed:       loadSeed,
			RatePerSec: rate,
			Tenants: []openloop.Tenant{
				{Name: "kv", Dist: openloop.Zipfian, Weight: 3, ReadPct: 90},
				{Name: "mix", Dist: openloop.Uniform, Weight: 1, ReadPct: 50},
			},
		},
		BlockSize: PageSize,
		Cached:    true,
		Exact:     true,
	}
}

// Pool sweeps the pooled socket: 1/2/4/6 channels x {4 KB, 2 MB} interleave
// under a saturating two-tenant open-loop load (a zipfian read-mostly
// key-value tenant over the low half, a uniform mixed tenant over the high
// half). Cells run in sequence; inside each cell the pool builds and
// prefills its members on o.Parallel workers with byte-identical output,
// so this experiment is the end-to-end exercise of that guarantee.
func Pool(o Options) (PoolResult, error) {
	var res PoolResult
	channelCounts := []int{1, 2, 4, 6}
	grans := []int64{4096, 2 << 20}
	perChannel := o.pick(600, 150)

	for _, gran := range grans {
		for _, channels := range channelCounts {
			// Saturating (rate 0): measure delivered, not offered, bandwidth.
			pt := poolPoint(o, fmt.Sprintf("pool %dch gran=%d", channels, gran), channels, gran,
				sim.SplitSeed(7, fmt.Sprintf("pool-exp/%d/%d", channels, gran)), 0)
			pt.Reqs = perChannel * channels
			pl, out, err := pt.Run(nil)
			if err != nil {
				return res, err
			}
			s := pl.(*pool.Pool).Stats()
			res.Rows = append(res.Rows, PoolPoint{
				Channels:     channels,
				InterleaveKB: int(gran >> 10),
				MBps:         s.Meter.BandwidthMBps(),
				Outcome:      out,
				HeldPeak:     s.HeldPeak,
			})
		}
	}

	// Harness-performance segment: the same 6-channel pool under an
	// idle-heavy *rated* open-loop load (mean inter-arrival ~64 epochs at
	// the default tREFI epoch), run twice on identical seeds — naive
	// lockstep first, then the lookahead scheduler — asserting identical
	// simulated outputs and measuring the wall-clock ratio. Only
	// deterministic (simulated) values are printed; the wall-clock numbers
	// leave through the advisory headlines so stdout stays byte-comparable
	// across runs, worker counts and scheduler modes.
	// ~500 us between arrivals (~64 epochs): idle-dominated.
	idle := poolPoint(o, "pool idle segment", 6, 4096, sim.SplitSeed(7, "pool-exp/idle"), 2e3)
	// The default 4-epoch probe period clips every quiet batch to 4
	// epochs; this segment measures scheduler throughput on a fault-free
	// pool, so the probe runs at a deployment-style period instead
	// (identical in both runs either way).
	idle.Pool.ProbeEvery, idle.Reqs = 64, o.pick(3000, 400)
	seg, idleFP, err := measureIdle(idle, func(pl Plane) (string, int) {
		s := pl.(*pool.Pool).Stats()
		return fmt.Sprintf("reqs=%d done=%d failed=%d shed=%d expired=%d epochs=%d held-peak=%d p50=%v p99=%v p999=%v bw=%.3fMB/s",
			s.Submitted, s.Completed, s.Failed, s.Shed, s.Expired, s.Epochs, s.HeldPeak,
			s.Lat.Percentile(50), s.Lat.Percentile(99), s.Lat.Percentile(99.9), s.Meter.BandwidthMBps()), s.Epochs
	})
	if err != nil {
		return res, err
	}
	res.IdleSegment = seg

	o.printf("== Pool: socket scaling, open-loop 2-tenant load (saturating) ==\n")
	for _, gran := range grans {
		kb := int(gran >> 10)
		o.printf("  interleave %4d KB", kb)
		var ys []float64
		for _, channels := range channelCounts {
			pt := res.At(channels, kb)
			o.printf("  %dch:%6.0fMB/s", channels, pt.MBps)
			ys = append(ys, pt.MBps)
		}
		o.printf("  %s\n", report.Sparkline(ys))
		for _, channels := range channelCounts {
			pt := res.At(channels, kb)
			o.printf("    %dch  p50=%-10v p99=%-10v p999=%-10v held-peak=%d\n",
				channels, pt.Lat.Percentile(50), pt.Lat.Percentile(99), pt.Lat.Percentile(99.9), pt.HeldPeak)
		}
	}
	o.printf("  1->6ch scaling at 4 KB interleave: %.2fx (paper board: 6 channels/socket)\n",
		res.ScalingX())
	o.printf("  idle-heavy 6ch rated segment: lockstep and lookahead outputs identical\n    %s\n", idleFP)
	return res, nil
}
