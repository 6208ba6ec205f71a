package experiments

import (
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/imdb"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/stream"
	"nvdimmc/internal/workload/tpch"
)

// AgingResult holds the refresh-detection validation (§VII-A): STREAM with
// per-iteration verification while the NVMC exercises every refresh window.
type AgingResult struct {
	Iterations      int
	Inconsistencies int
	Collisions      uint64
	FalsePositives  uint64
	WindowsSeen     uint64
	Evictions       uint64
}

// Aging runs the §VII-A test. The paper reports zero inconsistencies and no
// memory errors across its aging campaign.
func Aging(o Options) (AgingResult, error) {
	var res AgingResult
	cfg := nvdcConfig(64)
	cfg.CacheBytes = 1 << 20
	s, err := core.NewSystem(cfg)
	if err != nil {
		return res, err
	}
	// Vectors larger than the cache so every iteration drives NVMC traffic.
	n := s.Layout.NumSlots * PageSize / 3 / 8 * 2
	r := stream.New(s, 0, n)
	inited := false
	r.Init(func() { inited = true })
	if err := s.RunUntil(func() bool { return inited }, 60*sim.Second); err != nil {
		return res, err
	}
	iters := o.pick(10, 3)
	for i := 0; i < iters; i++ {
		finished := false
		r.RunIteration(func(int) { finished = true })
		if err := s.RunUntil(func() bool { return finished }, 60*sim.Second); err != nil {
			return res, err
		}
	}
	st := s.Detector.Stats()
	res = AgingResult{
		Iterations:      r.Iterations,
		Inconsistencies: r.Inconsistencies,
		Collisions:      s.Channel.CollisionCount(),
		FalsePositives:  st.FalsePositives,
		WindowsSeen:     s.NVMC.Stats().WindowsSeen,
		Evictions:       s.Driver.Stats().Evictions,
	}
	o.printf("== §VII-A aging: STREAM + always-on windows ==\n")
	o.printf("  iterations=%d inconsistencies=%d collisions=%d detector-false-positives=%d windows=%d evictions=%d\n",
		res.Iterations, res.Inconsistencies, res.Collisions, res.FalsePositives, res.WindowsSeen, res.Evictions)
	o.printf("  paper: no inconsistency, no memory errors\n")
	return res, nil
}

// MixedLoadResult holds the SAP mixed-load data-integrity run (§VII-B5).
type MixedLoadResult struct {
	Users              int
	Transactions       uint64
	ValidationFailures uint64
}

// MixedLoad runs concurrent validated transactions on the NVDIMM-C stack.
// Paper: five hundred concurrent users, no data corruption.
func MixedLoad(o Options) (MixedLoadResult, error) {
	var res MixedLoadResult
	cfg := nvdcConfig(64)
	cfg.CacheBytes = 2 << 20
	s, err := core.NewSystem(cfg)
	if err != nil {
		return res, err
	}
	users := o.pick(500, 50)
	txPerUser := o.pick(20, 8)
	db := imdb.New(s, s.K, s.Driver.CapacityPages()*PageSize, imdb.DefaultCost())
	// Records sized so the working set exceeds the cache (constant NVMC
	// traffic under the transactions).
	records := int64(s.Layout.NumSlots * 2 * (PageSize / 256))
	m, err := imdb.NewMixedLoad(db, records, 256)
	if err != nil {
		return res, err
	}
	inited := false
	m.Init(func() { inited = true })
	if err := s.RunUntil(func() bool { return inited }, 600*sim.Second); err != nil {
		return res, err
	}
	finished := false
	m.Run(users, txPerUser, func() { finished = true })
	if err := s.RunUntil(func() bool { return finished }, 3600*sim.Second); err != nil {
		return res, err
	}
	if err := s.CheckHealth(); err != nil {
		return res, err
	}
	res = MixedLoadResult{Users: users, Transactions: m.Transactions, ValidationFailures: m.ValidationFailures}
	o.printf("== §VII-B5 mixed load ==\n")
	o.printf("  users=%d transactions=%d validation-failures=%d (paper: 500 users, zero corruption)\n",
		res.Users, res.Transactions, res.ValidationFailures)
	return res, nil
}

// LRUStudyResult holds the LRC-vs-LRU hit-rate sweep (§VII-B5).
type LRUStudyResult struct {
	// SizesGB are the cache sizes in GB-equivalents (paper: 1..16).
	SizesGB []int
	LRU     []float64
	LRC     []float64
	Clock   []float64
}

// LRUStudy replays the TPC-H buffer trace at cache sizes 1–16 GB-equivalent.
// Paper: LRU reaches 78.7–99.3% from 1 GB to 16 GB.
func LRUStudy(o Options) (LRUStudyResult, error) {
	res := LRUStudyResult{SizesGB: []int{1, 2, 4, 8, 16}}
	// The trace study is cheap even at full scale; Quick does not shrink it.
	sc := tpch.Scale{TotalBytes: 100 << 20}
	trace := tpch.PageTrace(tpch.Specs(), sc, 1, tpch.BufferTrace())
	total := tpch.DatasetPages(sc)
	o.printf("== §VII-B5 LRC vs LRU hit rate (TPC-H buffer trace, %d refs) ==\n", len(trace))
	for _, gb := range res.SizesGB {
		slots := int(total) * gb / 100
		if slots < 1 {
			slots = 1
		}
		lru := nvdc.Replay(nvdc.PolicyLRU, slots, trace)
		lrc := nvdc.Replay(nvdc.PolicyLRC, slots, trace)
		clk := nvdc.Replay(nvdc.PolicyClock, slots, trace)
		res.LRU = append(res.LRU, lru.HitRate())
		res.LRC = append(res.LRC, lrc.HitRate())
		res.Clock = append(res.Clock, clk.HitRate())
		o.printf("  %2d GB-equiv: LRU %5.1f%%  LRC %5.1f%%  CLOCK %5.1f%%\n",
			gb, 100*lru.HitRate(), 100*lrc.HitRate(), 100*clk.HitRate())
	}
	o.printf("  paper: LRU 78.7%% @1GB rising to 99.3%% @16GB\n")
	return res, nil
}

// WindowsResult holds the §V-A analytical checks.
type WindowsResult struct {
	CachefillMinUS     float64
	PairMinUS          float64
	WindowBWMBps       float64
	WindowBWTrefi2MBps float64
	MeasuredPairUS     float64
}

// Windows verifies the §V-A arithmetic against the live model: cachefill
// >= 3x tREFI (23.4 us), miss-with-eviction >= 6x (46.8 us), window data
// bandwidth 500.8 MB/s at tREFI (1001.6 at tREFI2); then measures an actual
// uncached miss.
func Windows(o Options) (WindowsResult, error) {
	var res WindowsResult
	trefi := 7.8 // us
	res.CachefillMinUS = 3 * trefi
	res.PairMinUS = 6 * trefi
	res.WindowBWMBps = 4096.0 / (trefi * 1e-6) / 1e6
	res.WindowBWTrefi2MBps = 4096.0 / (3.9 * 1e-6) / 1e6

	// Measure one real miss-with-eviction.
	cfg := nvdcConfig(64)
	cfg.CacheBytes = 1 << 20
	s, err := core.NewSystem(cfg)
	if err != nil {
		return res, err
	}
	// Fill every slot.
	for p := 0; p < s.Layout.NumSlots; p++ {
		done := false
		s.Store(int64(p)*PageSize, []byte{byte(p)}, func() { done = true })
		if err := s.RunUntil(func() bool { return done }, sim.Second); err != nil {
			return res, err
		}
	}
	start := s.K.Now()
	done := false
	s.Load(int64(s.Layout.NumSlots+3)*PageSize, make([]byte, 64), func() { done = true })
	if err := s.RunUntil(func() bool { return done }, sim.Second); err != nil {
		return res, err
	}
	res.MeasuredPairUS = s.K.Now().Sub(start).Microseconds()

	o.printf("== §V-A window arithmetic ==\n")
	o.printf("  cachefill minimum: %.1f us (3x tREFI)\n", res.CachefillMinUS)
	o.printf("  writeback+cachefill minimum: %.1f us; PoC measured 69.8 us (8.9x); this model: %.1f us\n",
		res.PairMinUS, res.MeasuredPairUS)
	o.printf("  window data bandwidth: %.1f MB/s at tREFI, %.1f at tREFI2 (paper: 500.8 / 1001.6)\n",
		res.WindowBWMBps, res.WindowBWTrefi2MBps)
	if res.MeasuredPairUS < res.PairMinUS {
		return res, fmt.Errorf("experiments: measured pair %.1f us below the %.1f us theoretical floor",
			res.MeasuredPairUS, res.PairMinUS)
	}
	return res, nil
}
