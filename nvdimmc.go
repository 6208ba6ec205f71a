// Package nvdimmc is a production-quality Go reproduction of "NVDIMM-C: A
// Byte-Addressable Non-Volatile Memory Module for Compatibility with
// Standard DDR Memory Interfaces" (HPCA 2020): a DRAM-as-frontend NVDIMM in
// which an FPGA controller (NVMC) shares the standard DDR4 channel with the
// host iMC by confining its DRAM accesses to an extended refresh cycle
// (tRFC) window behind every REFRESH command it snoops off the CA bus.
//
// The package is a façade over the full simulated system in internal/:
//
//	sys, _ := nvdimmc.New(nvdimmc.DefaultConfig())
//	sys.Store(0, []byte("persistent"), nil)
//	sys.RunFor(nvdimmc.Microseconds(100))
//
// Everything the paper builds is here: the DDR4 protocol and DRAM model,
// the shared channel with collision detection, the refresh-detector RTL
// model, the Z-NAND array and FTL, the CP mailbox protocol, the nvdc driver
// with its LRC slot cache and coherence discipline, the pmem baseline, and
// harnesses that regenerate every table and figure of the evaluation
// (internal/experiments, cmd/nvdimmc-bench, bench_test.go).
package nvdimmc

import (
	"errors"
	"fmt"
	"io"

	"nvdimmc/internal/core"
	"nvdimmc/internal/ddr4"
	"nvdimmc/internal/experiments"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/pmem"
	"nvdimmc/internal/sim"
)

// Config parameterizes an NVDIMM-C system. It is core.Config re-exported;
// see that type for the full knob list.
type Config = core.Config

// System is a fully assembled NVDIMM-C machine (module + host).
type System = core.System

// Duration is simulated time in picoseconds.
type Duration = sim.Duration

// Convenience constructors for durations.
func Nanoseconds(n int64) Duration  { return Duration(n) * sim.Nanosecond }
func Microseconds(n int64) Duration { return Duration(n) * sim.Microsecond }
func Milliseconds(n int64) Duration { return Duration(n) * sim.Millisecond }

// Replacement policies for the DRAM cache slots.
const (
	PolicyLRC   = nvdc.PolicyLRC
	PolicyLRU   = nvdc.PolicyLRU
	PolicyClock = nvdc.PolicyClock
)

// Speed grades.
const (
	DDR4_1600 = ddr4.DDR4_1600
	DDR4_2400 = ddr4.DDR4_2400
)

// DefaultConfig returns the laptop-scale configuration preserving the PoC's
// ratios (16 MB DRAM cache : 128 MB Z-NAND standing in for 16 GB : 128 GB).
func DefaultConfig() Config { return core.DefaultConfig() }

// New assembles and boots a system.
func New(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Baseline is the emulated-pmem comparator (/dev/pmem0 in the paper).
type Baseline = pmem.Device

// BaselineConfig mirrors Table I's baseline module.
func BaselineConfig() pmem.Config { return pmem.DefaultConfig() }

// NewBaseline builds the comparator device.
func NewBaseline(cfg pmem.Config) (*Baseline, error) { return pmem.New(cfg) }

// ExperimentOptions control the figure/table harnesses. Parallel fans the
// shardable experiments (crash, fig9, fig11, fig13) across that many
// workers with byte-identical output; Headline receives per-experiment
// headline metrics for machine-readable snapshots.
type ExperimentOptions = experiments.Options

// Experiments exposes every evaluation harness keyed by the paper's
// figure/table identifiers. Each prints its paper-vs-measured rows to
// opts.Out, reports its headline metrics through opts.Headline (when set),
// and returns an error if the run could not complete.
func Experiments(opts ExperimentOptions) map[string]func() error {
	m := map[string]func() error{}
	for _, e := range registry(opts) {
		m[e.Name] = e.run
	}
	return m
}

// experiment is one registry entry: a harness's name and description, and
// the harness.
type experiment struct {
	ExperimentInfo
	run func() error
}

// registry is every harness run with opts, in the paper's order: the one
// table Experiments, ExperimentList and ExperimentNames derive from.
func registry(opts ExperimentOptions) []experiment {
	hl := func(name string, v float64) {
		if opts.Headline != nil {
			opts.Headline(name, v)
		}
	}
	// idleHL reports an idle-heavy segment's harness-performance headlines.
	// The "~" prefix marks them advisory: wall-clock derived, machine- and
	// load-dependent, tracked in snapshots but never gated by benchdiff.
	idleHL := func(prefix string, s experiments.IdleSegment) {
		if s.IdleWallLockstepMS > 0 && s.IdleWallLookaheadMS > 0 {
			hl("~"+prefix+"-idle-epochs-per-sec-lockstep", float64(s.IdleEpochs)/(s.IdleWallLockstepMS/1000))
			hl("~"+prefix+"-idle-epochs-per-sec-lookahead", float64(s.IdleEpochs)/(s.IdleWallLookaheadMS/1000))
			hl("~"+prefix+"-idle-speedup-x", s.IdleSpeedupX())
		}
	}
	// campaign reports the headlines every campaign shares, its point count
	// and acked-write loss, and fails the campaign on any lost acked write.
	campaign := func(name string, r interface {
		Points() int
		AckedLostTotal() uint64
	}) error {
		hl("points", float64(r.Points()))
		hl("acked-writes-lost", float64(r.AckedLostTotal()))
		if lost := r.AckedLostTotal(); lost > 0 {
			return fmt.Errorf("%s: %d acked writes lost across %d points", name, lost, r.Points())
		}
		return nil
	}
	return []experiment{
		{ExperimentInfo{"table1", "module latency characteristics vs paper Table I"},
			func() error { experiments.Table1(opts); return nil }},
		{ExperimentInfo{"table2", "DRAM-cache hit/miss service times vs paper Table II"},
			func() error { experiments.Table2(opts); return nil }},
		{ExperimentInfo{"frontend", "refresh-window budget arithmetic behind the NVMC design"},
			func() error {
				res := experiments.FrontendAnalysis(opts)
				hl("budget-ns", res.Budget.Nanoseconds())
				return nil
			}},
		{ExperimentInfo{"aging", "modified-STREAM soak: zero inconsistencies under refresh traffic"},
			harness(experiments.Aging, opts, func(res experiments.AgingResult) error {
				hl("windows", float64(res.WindowsSeen))
				return nil
			})},
		{ExperimentInfo{"fig7", "single-thread cached vs uncached bandwidth"},
			harness(experiments.Fig7, opts, func(res experiments.Fig7Result) error {
				hl("cached-MBps", res.CachedMBps)
				hl("uncached-MBps", res.UncachedMBps)
				return nil
			})},
		{ExperimentInfo{"fig8", "4KB random R/W bandwidth: baseline vs NVDC cached/uncached"},
			harness(experiments.Fig8, opts, func(res experiments.Fig8Result) error {
				hl("baseline-read-MBps", res.Get("baseline-read bandwidth"))
				hl("cached-read-MBps", res.Get("cached-read bandwidth"))
				hl("uncached-read-MBps", res.Get("uncached-read bandwidth"))
				return nil
			})},
		{ExperimentInfo{"fig9", "thread-count sweep to channel saturation"},
			harness(experiments.Fig9, opts, func(res experiments.Fig9Result) error {
				_, basePeak := res.Peak("baseline-read")
				_, cachedPeak := res.Peak("cached-read")
				hl("baseline-peak-MBps", basePeak)
				hl("cached-peak-MBps", cachedPeak)
				return nil
			})},
		{ExperimentInfo{"fig10", "block-size sweep 128B-64KB (KIOPS and MB/s)"},
			harness(experiments.Fig10, opts, func(res experiments.Fig10Result) error {
				hl("cached-128B-KIOPS", res.At("cached-read", 128).KIOPS)
				hl("cached-64K-MBps", res.At("cached-read", 65536).MBps)
				return nil
			})},
		{ExperimentInfo{"fig11", "TPC-H-style scan slowdown vs working-set spill"},
			harness(experiments.Fig11, opts, func(res experiments.Fig11Result) error {
				if len(res.Slowdown) > 0 {
					hl("Q1-slowdown-x", res.Slowdown[0])
					hl("Qlast-slowdown-x", res.Slowdown[len(res.Slowdown)-1])
				}
				return nil
			})},
		{ExperimentInfo{"mixed", "transactional mixed read/write load with persistence barriers"},
			harness(experiments.MixedLoad, opts, func(res experiments.MixedLoadResult) error {
				hl("transactions", float64(res.Transactions))
				return nil
			})},
		{ExperimentInfo{"lru", "slot replacement policy study: LRC vs LRU vs Clock hit rates"},
			harness(experiments.LRUStudy, opts, func(res experiments.LRUStudyResult) error {
				if len(res.LRU) > 0 {
					hl("LRU-first-hit-pct", 100*res.LRU[0])
					hl("LRU-last-hit-pct", 100*res.LRU[len(res.LRU)-1])
				}
				return nil
			})},
		{ExperimentInfo{"fig12", "eviction-threshold (dirty-slot watermark) sweep"},
			harness(experiments.Fig12, opts, func(res experiments.Fig12Result) error {
				if len(res.Rows) > 0 {
					hl("tD1.85us-MBps", res.Rows[len(res.Rows)-1].Measured)
				}
				return nil
			})},
		{ExperimentInfo{"fig13", "tREFI register sweep: refresh cadence vs bandwidth"},
			harness(experiments.Fig13, opts, func(res experiments.Fig13Result) error {
				if len(res.Rows) > 0 {
					hl("tREFI-MBps", res.Rows[0].Measured)
					hl("tREFI4-16T-MBps", res.Peak16T)
				}
				return nil
			})},
		{ExperimentInfo{"windows", "measured REFRESH-to-REFRESH window pairing vs tRFC budget"},
			harness(experiments.Windows, opts, func(res experiments.WindowsResult) error {
				hl("pair-us", res.MeasuredPairUS)
				return nil
			})},
		{ExperimentInfo{"ablations", "feature ablations from PoC to optimized configuration"},
			harness(experiments.Ablations, opts, func(res experiments.AblationResult) error {
				if len(res.Rows) > 4 {
					hl("PoC-MBps", res.Rows[0].Measured)
					hl("optimized-MBps", res.Rows[4].Measured)
				}
				return nil
			})},
		{ExperimentInfo{"endurance", "write amplification and wear spread on the Z-NAND media"},
			harness(experiments.Endurance, opts, func(res experiments.EnduranceResult) error {
				hl("write-amp", res.WriteAmp)
				return nil
			})},
		{ExperimentInfo{"crash", "power-fail sweep: no acked write lost at any crash instant"},
			harness(experiments.CrashSweep, opts, func(res *experiments.CrashResult) error {
				hl("points", float64(res.Points))
				hl("acked-writes", float64(res.Acked))
				hl("flushed-pages", float64(res.Flushed))
				hl("acked-writes-lost", float64(len(res.Failures)))
				if len(res.Failures) > 0 {
					return fmt.Errorf("crash sweep: %d acked writes lost (seed %#x)", len(res.Failures), res.Seed)
				}
				return nil
			})},
		{ExperimentInfo{"conformance", "randomized DDR4 protocol conformance fuzzing (auditor-checked)"},
			harness(experiments.Conformance, opts, func(res *experiments.ConformanceResult) error {
				hl("iterations", float64(res.Iterations))
				hl("ops", float64(res.OpsRun))
				hl("events-audited", float64(res.Events))
				hl("violations", float64(len(res.Failures)))
				if len(res.Failures) > 0 {
					return fmt.Errorf("conformance: %d protocol violation(s) (seed %#x); first: %s",
						len(res.Failures), res.Seed, res.Failures[0])
				}
				return nil
			})},
		{ExperimentInfo{"pool", "socket scaling: 1-6 interleaved channels under open-loop multi-tenant load"},
			harness(experiments.Pool, opts, func(res experiments.PoolResult) error {
				hl("1ch-4K-MBps", res.At(1, 4).MBps)
				hl("6ch-4K-MBps", res.At(6, 4).MBps)
				hl("scaling-x", res.ScalingX())
				hl("6ch-4K-p99-ns", float64(res.At(6, 4).Lat.Percentile(99).Nanoseconds()))
				idleHL("6ch", res.IdleSegment)
				return nil
			})},
		{ExperimentInfo{"faultpool", "socket-scale fault campaign: quarantine, spare failover, rebuild, zero acked-write loss"},
			harness(experiments.FaultPool, opts, func(res experiments.FaultPoolResult) error {
				hl("post-quarantine-dispatches", float64(res.PostQuarantineTotal()))
				hl("min-availability", res.MinAvailability())
				hl("failover-points", float64(res.Failovers()))
				if err := campaign("faultpool", res); err != nil {
					return err
				}
				if res.PostQuarantineTotal() > 0 {
					return fmt.Errorf("faultpool: %d fragments dispatched to quarantined members",
						res.PostQuarantineTotal())
				}
				return nil
			})},
		{ExperimentInfo{"overload", "saturation campaign: deadlines, typed timeouts and admission shedding from 0.5x to 4x capacity"},
			harness(experiments.Overload, opts, func(res experiments.OverloadResult) error {
				hl("capacity-ops", res.CapacityOps)
				hl("4x-shed-goodput-ratio", res.ShedGoodputRatio())
				hl("shed", float64(res.ShedTotal()))
				hl("expired", float64(res.ExpiredTotal()))
				if err := campaign("overload", res); err != nil {
					return err
				}
				if res.ShedGoodputRatio() < 0.9 {
					return fmt.Errorf("overload: 4x deadline-aware goodput %.2fx capacity, below the 0.9x graceful-degradation bound",
						res.ShedGoodputRatio())
				}
				return res.ShedBeatsQueueing()
			})},
		{ExperimentInfo{"qos", "multi-tenant noisy-neighbor campaign: token buckets, DRR dispatch and per-tenant SLO verdicts, isolation on vs off"},
			harness(experiments.QoS, opts, func(res experiments.QoSResult) error {
				hl("capacity-ops", res.CapacityOps)
				on, off := res.Find(true, "none"), res.Find(false, "none")
				if on != nil {
					hl("iso-light-violations", float64(on.LightViolations()))
					hl("iso-hot-throttled", float64(on.HotThrottled()))
					hl("iso-hot-bucket-ratio", on.HotRatio)
					hl("iso-worst-light-p99-us", float64(on.WorstLightP99().Microseconds()))
				}
				if off != nil {
					hl("noiso-light-violations", float64(off.LightViolations()))
					hl("noiso-worst-light-p99-us", float64(off.WorstLightP99().Microseconds()))
				}
				if err := campaign("qos", res); err != nil {
					return err
				}
				if on != nil {
					switch {
					case on.LightViolations() > 0:
						return fmt.Errorf("qos: isolation on, %d light tenant(s) missed the p99 SLO (worst %v)",
							on.LightViolations(), on.WorstLightP99())
					case on.HotThrottled() == 0:
						return fmt.Errorf("qos: hot tenant at %dx its bucket rate was never throttled", 4)
					case on.HotRatio < 0.75 || on.HotRatio > 1.25:
						return fmt.Errorf("qos: hot goodput %.2fx its bucket rate, outside the 0.75-1.25 throttle-to-contract band",
							on.HotRatio)
					}
				}
				if off != nil && off.LightViolations() == 0 {
					return fmt.Errorf("qos: isolation off, no light tenant violated its SLO — the campaign lost its control arm")
				}
				return nil
			})},
		{ExperimentInfo{"numa", "multi-socket fabric fault campaign: socket kill, slow socket and interconnect degrade with evacuation, migration and cross-socket failover"},
			harness(experiments.Numa, opts, func(res experiments.NumaResult) error {
				hl("post-evac-submissions", float64(res.PostEvacTotal()))
				hl("min-availability", res.MinAvailability())
				hl("evacuations", float64(res.Evacuations()))
				idleHL("numa", res.IdleSegment)
				if err := campaign("numa", res); err != nil {
					return err
				}
				if res.PostEvacTotal() > 0 {
					return fmt.Errorf("numa: %d foreground submissions reached an evacuating socket",
						res.PostEvacTotal())
				}
				return res.CheckLattice()
			})},
		{ExperimentInfo{"replay", "trace-replay determinism: captured overload run reproduced byte-identically across formats, worker counts and scheduler modes"},
			harness(experiments.Replay, opts, func(res experiments.ReplayResult) error {
				hl("ops", float64(res.Ops))
				hl("variants", float64(res.Points()))
				// Always 0 here: Replay already failed on the first diverged
				// variant. Kept so the -json headline names stay the same.
				hl("divergent", float64(res.Divergent()))
				hl("retimed", float64(res.RetimedTotal()))
				hl("binary-bytes-per-op", float64(res.BinaryBytes)/float64(res.Ops))
				hl("compaction-x", res.CompactionX())
				switch {
				case res.RetimedTotal() > 0:
					return fmt.Errorf("replay: %d arrival clamps replaying a monotone capture", res.RetimedTotal())
				case res.CompactionX() < 2:
					return fmt.Errorf("replay: binary format only %.2fx smaller than text, below the 2x bound",
						res.CompactionX())
				}
				return nil
			})},
		{ExperimentInfo{"service", "network-service conservation: concurrent HTTP clients per admission policy, client ledger reconciled against the drain audit"},
			harness(experiments.Service, opts, func(res experiments.ServiceResult) error {
				hl("clients", float64(res.Clients))
				hl("ops-total", float64(res.OpsTotal()))
				hl("violations", float64(res.ViolationTotal()))
				if err := campaign("service", res); err != nil {
					return err
				}
				if res.ViolationTotal() > 0 {
					return fmt.Errorf("service: %d conservation violations across %d points",
						res.ViolationTotal(), res.Points())
				}
				return nil
			})},
	}
}

// harness adapts one experiment to the registry: it runs the experiment
// with opts and, when it succeeds, hands the result to check, which
// reports the headlines and gates the result.
func harness[R any](run func(experiments.Options) (R, error), opts experiments.Options, check func(R) error) func() error {
	return func() error {
		res, err := run(opts)
		if err != nil {
			return err
		}
		return check(res)
	}
}

// ExperimentInfo pairs a harness name with a one-line description for
// listings (nvdimmc-bench -list).
type ExperimentInfo struct {
	Name string
	Desc string
}

// ExperimentList describes the harnesses in the paper's order.
func ExperimentList() []ExperimentInfo {
	reg := registry(ExperimentOptions{})
	list := make([]ExperimentInfo, len(reg))
	for i, e := range reg {
		list[i] = e.ExperimentInfo
	}
	return list
}

// ExperimentNames lists the harnesses in the paper's order.
func ExperimentNames() []string {
	list := ExperimentList()
	names := make([]string, len(list))
	for i, e := range list {
		names[i] = e.Name
	}
	return names
}

// RunAll executes every harness in order, writing to out. A failing
// experiment no longer aborts the rest: every harness runs, and the joined
// per-experiment errors come back together (nil if all passed).
func RunAll(out io.Writer, quick bool) error {
	opts := ExperimentOptions{Quick: quick, Out: out}
	m := Experiments(opts)
	var errs []error
	for _, name := range ExperimentNames() {
		if err := m[name](); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}
