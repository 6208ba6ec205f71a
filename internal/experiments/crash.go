// Crash-consistency sweep: the §V-C persistence promise, tested the way a
// storage system is tested — by pulling the plug at many seeded instants in
// the middle of a write-heavy workload and proving that every write the
// application saw acknowledged is durable on the Z-NAND media afterwards.
//
// Each sweep point builds a fresh strict-ADR system, runs a random
// overwrite workload whose 4 KB payloads self-describe (lpn, version),
// fails power at a random mid-workload instant, lets the battery-backed
// metadata-driven flush run, and then audits the media: for every lpn the
// workload saw acked at version v, the FTL must return an untorn page of
// that lpn with version >= v (a later in-flight write may also have landed
// — durability is one-directional). The point ends with driver metadata
// recovery and a full CheckHealth.
package experiments

import (
	"encoding/binary"
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/sim"
)

// DefaultCrashSeed is the sweep's master seed; every per-point seed is
// derived from it with sim.SplitSeed, so one number replays the whole sweep
// and any printed point seed replays that point alone.
const DefaultCrashSeed uint64 = 0xC4A5_11FE

// CrashResult aggregates a sweep.
type CrashResult struct {
	Seed     uint64
	Points   int
	Acked    int // acked writes audited across all points
	Flushed  int // dirty pages the battery flushes persisted
	Failures []string
}

// CrashSweep runs the power-fail sweep at the configured scale (full: 64
// points; quick: 8) under the default master seed.
func CrashSweep(o Options) (*CrashResult, error) {
	return CrashSweepSeeded(o, DefaultCrashSeed)
}

// CrashSweepSeeded is CrashSweep from an explicit master seed. The points
// are independent systems (each seeded from the master via sim.SplitSeed),
// so they fan out across o.Parallel workers; results merge in point order,
// making the printed output byte-identical to a serial run.
func CrashSweepSeeded(o Options, seed uint64) (*CrashResult, error) {
	points := o.pick(64, 8)
	res := &CrashResult{Seed: seed, Points: points}
	o.printf("== Crash-consistency sweep (seed %#x, %d power-fail points) ==\n", seed, points)
	type pointResult struct {
		acked, flushed int
		fails          []string
	}
	prs, err := runShards(points, o.workers(), func(i int) (pointResult, error) {
		ps := sim.SplitSeed(seed, fmt.Sprintf("point-%03d", i))
		acked, flushed, fails, err := CrashPoint(ps)
		if err != nil {
			return pointResult{}, fmt.Errorf("point %d (seed %#x): %w", i, ps, err)
		}
		pr := pointResult{acked: acked, flushed: flushed}
		for _, f := range fails {
			pr.fails = append(pr.fails, fmt.Sprintf("point %d (seed %#x): %s", i, ps, f))
		}
		return pr, nil
	})
	if err != nil {
		return res, err
	}
	for _, pr := range prs {
		res.Acked += pr.acked
		res.Flushed += pr.flushed
		res.Failures = append(res.Failures, pr.fails...)
	}
	o.printf("  %-42s %d\n", "power-fail points", res.Points)
	o.printf("  %-42s %d\n", "acked writes audited", res.Acked)
	o.printf("  %-42s %d\n", "dirty pages battery-flushed", res.Flushed)
	o.printf("  %-42s %d\n", "acked writes lost", len(res.Failures))
	for _, f := range res.Failures {
		o.printf("  FAIL %s\n", f)
	}
	return res, nil
}

// CrashPoint runs one seeded power-fail point and returns the number of
// acked writes audited, the battery-flush page count, and a description of
// every violated durability or health invariant. A returned error means the
// point could not run at all (setup or store failure), not a lost write.
func CrashPoint(seed uint64) (acked, flushed int, failures []string, err error) {
	rng := sim.NewRand(seed)
	// StrictADR puts the WPQ inside the persistence domain: the §V-C
	// configuration under which "acked" is supposed to mean "durable".
	cfg := core.RigConfig()
	cfg.StrictADR, cfg.Seed = true, sim.SplitSeed(seed, "system")
	s, err := core.NewSystem(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	lpnRange := int64(s.Layout.NumSlots) * 3
	if lp := s.FTL.LogicalPages(); lpnRange > lp {
		lpnRange = lp
	}

	// The workload: two always-full pipelines of single-page stores to
	// random lpns in a range 3x the slot count, so the cache churns through
	// fast fills, evictions and writebacks. ver is the version each lpn
	// will carry next; ackedVer records what the application saw complete.
	ver := map[int64]uint64{}
	ackedVer := map[int64]uint64{}
	dead := false // power gone: later acks never reached the application
	var storeErr error
	var issue func()
	issue = func() {
		if dead || storeErr != nil {
			return
		}
		lpn := rng.Int63n(lpnRange)
		ver[lpn]++
		v := ver[lpn]
		s.StoreErr(lpn*PageSize, crashPage(lpn, v), func(err error) {
			if dead {
				return
			}
			if err != nil {
				storeErr = err
				return
			}
			ackedVer[lpn] = v
			issue()
		})
	}
	issue()
	issue()

	// Fail power at a random instant: early points die while the cache is
	// still filling, late ones mid-eviction steady state.
	crashAt := s.K.Now().Add(20*sim.Microsecond +
		sim.Duration(rng.Int63n(int64(2*sim.Millisecond))))
	for s.K.Now() < crashAt && storeErr == nil {
		if !s.K.Step() {
			return 0, 0, nil, fmt.Errorf("kernel drained before the failure instant")
		}
	}
	if storeErr != nil {
		return 0, 0, nil, fmt.Errorf("store failed before the failure instant: %w", storeErr)
	}
	dead = true
	flushed, err = s.PowerFail()
	if err != nil {
		return 0, 0, nil, fmt.Errorf("battery flush: %w", err)
	}

	// The audit: every acked (lpn, version) must be on the media, untorn.
	for lpn, v := range ackedVer {
		var page []byte
		var rerr error
		s.FTL.ReadPage(lpn, func(d []byte, err error) { page, rerr = d, err })
		s.K.Run()
		if rerr != nil {
			failures = append(failures, fmt.Sprintf("lpn %d acked at v%d: media read: %v", lpn, v, rerr))
			continue
		}
		got, perr := crashPageVersion(page, lpn)
		if perr != nil {
			failures = append(failures, fmt.Sprintf("lpn %d acked at v%d: %v", lpn, v, perr))
			continue
		}
		if got < v {
			failures = append(failures, fmt.Sprintf("lpn %d acked at v%d but media holds v%d", lpn, v, got))
		}
	}

	// "Reboot": rebuild the driver map from the metadata area, then assert
	// system health (no collisions, protocol violations, FTL inconsistency,
	// or phantom error counters).
	meta := make([]byte, s.Layout.MetaSize)
	if err := s.DRAM.CopyOut(s.Layout.MetaOffset, meta); err != nil {
		return len(ackedVer), flushed, failures, err
	}
	if _, err := s.Driver.RecoverFromMetadata(meta); err != nil {
		failures = append(failures, fmt.Sprintf("driver recovery: %v", err))
	}
	if err := s.CheckHealth(); err != nil {
		failures = append(failures, fmt.Sprintf("post-crash health: %v", err))
	}
	return len(ackedVer), flushed, failures, nil
}

// crashPage builds a self-describing 4 KB payload: lpn and version in the
// header, a version-derived fill byte in the body, so the audit can detect
// wrong-page, stale and torn states from the page alone.
func crashPage(lpn int64, ver uint64) []byte {
	p := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(p[0:8], uint64(lpn))
	binary.LittleEndian.PutUint64(p[8:16], ver)
	fill := crashFill(lpn, ver)
	for i := 16; i < PageSize; i++ {
		p[i] = fill
	}
	return p
}

func crashFill(lpn int64, ver uint64) byte {
	return byte(uint64(lpn)*131 + ver*31 + 7)
}

// crashPageVersion validates a page read back from the media against the
// crashPage format and returns the version it carries.
func crashPageVersion(p []byte, lpn int64) (uint64, error) {
	if len(p) < PageSize {
		return 0, fmt.Errorf("short page (%d B)", len(p))
	}
	if got := binary.LittleEndian.Uint64(p[0:8]); got != uint64(lpn) {
		return 0, fmt.Errorf("page tagged lpn %d, want %d", got, lpn)
	}
	v := binary.LittleEndian.Uint64(p[8:16])
	fill := crashFill(lpn, v)
	for i := 16; i < PageSize; i++ {
		if p[i] != fill {
			return 0, fmt.Errorf("torn page: v%d header but byte %d is %#x, want %#x", v, i, p[i], fill)
		}
	}
	return v, nil
}
