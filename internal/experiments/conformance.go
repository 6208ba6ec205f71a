package experiments

import (
	"bytes"
	"fmt"

	"nvdimmc/internal/conform"
	"nvdimmc/internal/core"
	"nvdimmc/internal/sim"
)

// DefaultConformanceSeed is the fuzz sweep's master seed; every iteration's
// plan seed is derived from it with sim.SplitSeed, so any failure is
// replayable from the one number printed in the failure line.
const DefaultConformanceSeed uint64 = 0xC0F0_44D1

// conformLPNRange is the page-address range plans target: ~3x the slot
// count of the scaled system below, so the cache churns through evictions,
// writebacks and cachefills (the same pressure recipe as the crash sweep).
const conformLPNRange = 90

// ConformanceResult aggregates the randomized protocol-conformance sweep.
type ConformanceResult struct {
	Iterations int
	OpsRun     int    // ops executed across all iterations
	Events     uint64 // trace events the auditor checked
	Faulted    int    // iterations that ran with a fault schedule armed
	Seed       uint64
	// Failures holds one line per failing iteration, each ending with the
	// minimal reproducer: "REPRO: seed=<s> ops=<m>".
	Failures []string
}

// Conformance runs the randomized conformance fuzzer with the default seed:
// seeded plans (op mix + timing registers + fault schedule) against the
// full System, auditor strict, shrink-on-failure. See EXPERIMENTS.md for
// the reproducer workflow.
func Conformance(o Options) (*ConformanceResult, error) {
	return ConformanceSeeded(o, DefaultConformanceSeed)
}

// ConformanceSeeded is Conformance with an explicit master seed.
func ConformanceSeeded(o Options, seed uint64) (*ConformanceResult, error) {
	o.printf("== conformance: randomized protocol fuzz, auditor strict (seed %#x) ==\n", seed)
	res := &ConformanceResult{Iterations: o.pick(24, 6), Seed: seed}
	maxOps := o.pick(140, 60)

	type iterResult struct {
		ops     int
		events  uint64
		faulted bool
		fail    string
	}
	irs, err := runShards(res.Iterations, o.workers(), func(i int) (iterResult, error) {
		ps := sim.SplitSeed(seed, fmt.Sprintf("iter-%03d", i))
		withFaults := i%2 == 1
		plan := conform.NewPlan(ps, maxOps, conformLPNRange, withFaults)
		events, vio, err := conformancePoint(plan, len(plan.Ops), nil)
		if err != nil {
			return iterResult{}, fmt.Errorf("iter %d (%v): %w", i, plan, err)
		}
		ir := iterResult{ops: len(plan.Ops), events: events, faulted: withFaults}
		if vio != "" {
			min := conform.ShrinkOps(len(plan.Ops), func(m int) bool {
				_, v, perr := conformancePoint(plan, m, nil)
				return perr == nil && v != ""
			})
			ir.fail = fmt.Sprintf("iter %d: %s; REPRO: seed=%#x ops=%d", i, vio, plan.Seed, min)
		}
		return ir, nil
	})
	if err != nil {
		return res, err
	}
	for _, ir := range irs {
		res.OpsRun += ir.ops
		res.Events += ir.events
		if ir.faulted {
			res.Faulted++
		}
		if ir.fail != "" {
			res.Failures = append(res.Failures, ir.fail)
		}
	}
	o.printf("  %-42s %d\n", "iterations", res.Iterations)
	o.printf("  %-42s %d\n", "ops executed", res.OpsRun)
	o.printf("  %-42s %d\n", "trace events audited", res.Events)
	o.printf("  %-42s %d\n", "fault-armed iterations", res.Faulted)
	o.printf("  %-42s %d\n", "protocol violations", len(res.Failures))
	for _, f := range res.Failures {
		o.printf("  FAIL %s\n", f)
	}
	return res, nil
}

// conformPage renders the deterministic self-describing content of one
// written page, so reads can verify "every acked read returns the last
// acked write" without a byte-level mirror.
func conformPage(lpn int64, tag byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = tag ^ byte(i*13) ^ byte(lpn)
	}
	return p
}

// conformancePoint replays the first m ops of plan against a fresh system
// and reports how many trace events the auditor checked and the first
// protocol violation (empty if clean). perturb, when non-nil, sabotages the
// booted system before the workload runs — the hook the broken-build tests
// use to prove detection. A returned error means the run itself failed
// (setup error, op timeout, or an op error with no fault schedule armed to
// excuse it), not a protocol violation.
func conformancePoint(plan conform.Plan, m int, perturb func(*core.System)) (uint64, string, error) {
	// The crash sweep's rig with the plan's randomized timing registers.
	cfg := core.RigConfig()
	cfg.TREFI, cfg.TRFC, cfg.Seed = plan.TREFI, plan.TRFC, sim.SplitSeed(plan.Seed, "system")
	if len(plan.Faults) > 0 {
		cfg.FaultSeed = sim.SplitSeed(plan.Seed, "faults")
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		return 0, "", err
	}
	if s.FTL.LogicalPages() < plan.LPNRange {
		return 0, "", fmt.Errorf("conformance: media smaller (%d pages) than plan range %d",
			s.FTL.LogicalPages(), plan.LPNRange)
	}
	if s.Faults != nil {
		plan.Arm(s.Faults)
	}
	if perturb != nil {
		perturb(s)
	}
	tolerate := len(plan.Faults) > 0

	// written tracks the tag of the last acked write per lpn; entries are
	// invalidated when a write fails (content then indeterminate).
	written := map[int64]byte{}
	if m > len(plan.Ops) {
		m = len(plan.Ops)
	}
	for i := 0; i < m; i++ {
		op := plan.Ops[i]
		var opErr error
		doneFlag := false
		done := func(err error) { opErr = err; doneFlag = true }
		var buf []byte
		switch op.Kind {
		case conform.OpWrite:
			s.StoreErr(op.LPN*PageSize, conformPage(op.LPN, op.Tag), done)
		case conform.OpRead:
			buf = make([]byte, PageSize)
			s.LoadErr(op.LPN*PageSize, buf, done)
		case conform.OpFlush:
			s.Driver.FlushLPN(op.LPN, done)
		}
		if err := s.RunUntil(func() bool { return doneFlag }, 500*sim.Millisecond); err != nil {
			return s.Auditor.Events(), "", fmt.Errorf("op %d (%v lpn %d): %w", i, op.Kind, op.LPN, err)
		}
		switch {
		case opErr != nil && !tolerate:
			return s.Auditor.Events(), "", fmt.Errorf("op %d (%v lpn %d) failed with no faults armed: %w",
				i, op.Kind, op.LPN, opErr)
		case opErr != nil:
			// A legal outcome of the armed fault schedule (read-only mode,
			// exhausted retries, CP timeout); the page content is now
			// unknown to the application.
			delete(written, op.LPN)
		case op.Kind == conform.OpWrite:
			written[op.LPN] = op.Tag
		case op.Kind == conform.OpRead:
			if tag, ok := written[op.LPN]; ok && !bytes.Equal(buf, conformPage(op.LPN, tag)) {
				return s.Auditor.Events(), "",
					fmt.Errorf("op %d: read of lpn %d does not match last acked write", i, op.LPN)
			}
		}
	}
	// Let in-flight writebacks, retries and acks drain before judging.
	s.RunFor(5 * sim.Millisecond)

	if err := s.Auditor.Err(); err != nil {
		return s.Auditor.Events(), err.Error(), nil
	}
	if err := s.CheckHealth(); err != nil {
		return s.Auditor.Events(), err.Error(), nil
	}
	return s.Auditor.Events(), "", nil
}
