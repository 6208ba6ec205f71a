package experiments

import (
	"fmt"

	"nvdimmc/internal/core"
	"nvdimmc/internal/imdb"
	"nvdimmc/internal/nand"
	"nvdimmc/internal/pmem"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/tpch"
)

// Fig11Result holds the TPC-H-on-IMDB comparison (Fig. 11): per-query
// execution time on NVDIMM-C normalized to the pmem baseline.
type Fig11Result struct {
	// Slowdown[q-1] is time(nvdc)/time(baseline) for query q.
	Slowdown []float64
	// Elapsed times for inspection.
	NVDC, Baseline []sim.Duration
}

// Paper anchors: Q1 ~3.3x, Q20 ~78x (§VII-B5).
const (
	fig11PaperQ1  = 3.3
	fig11PaperQ20 = 78.0
)

// Fig11 builds the scaled dataset and runs the 22 queries, each on a
// freshly built pair of systems (NVDIMM-C and the pmem baseline) so every
// query starts from the identical post-build cache state. That makes the 22
// queries independent shards — they fan out across o.Parallel workers and
// merge in query order — and makes each query's time a function of its spec
// alone rather than of whichever queries happened to run before it. (The
// paper runs a power-run; the per-query cold start costs the later queries
// whatever residue the earlier ones would have left, which is well under
// the 3.3x-78x signal this figure is about.)
func Fig11(o Options) (Fig11Result, error) {
	var res Fig11Result

	// Scale: dataset ≈ 6.25x the DRAM cache, preserving the paper's
	// 100 GB : 16 GB ratio. Quick mode shrinks both.
	cacheBytes := int64(o.pick(16<<20, 6<<20))
	datasetBytes := cacheBytes * 25 / 4

	specs := tpch.Specs()
	if o.Quick {
		specs = []tpch.QuerySpec{specs[0], specs[5], specs[19]} // Q1, Q6, Q20
	}

	type queryTimes struct {
		nvdc, base sim.Duration
	}
	times, err := runShards(len(specs), o.workers(), func(i int) (queryTimes, error) {
		q := specs[i]
		nv, err := fig11QueryNVDC(o, q, cacheBytes, datasetBytes)
		if err != nil {
			return queryTimes{}, fmt.Errorf("fig11: %s (nvdc): %w", q.Name(), err)
		}
		base, err := fig11QueryBaseline(q, datasetBytes)
		if err != nil {
			return queryTimes{}, fmt.Errorf("fig11: %s (baseline): %w", q.Name(), err)
		}
		return queryTimes{nvdc: nv, base: base}, nil
	})
	if err != nil {
		return res, err
	}
	for _, t := range times {
		res.NVDC = append(res.NVDC, t.nvdc)
		res.Baseline = append(res.Baseline, t.base)
	}

	o.printf("== Fig. 11: TPC-H query time normalized to baseline ==\n")
	for i := range specs {
		sd := float64(res.NVDC[i]) / float64(res.Baseline[i])
		res.Slowdown = append(res.Slowdown, sd)
		o.printf("  %-4s nvdc=%-12v base=%-12v slowdown=%.1fx\n",
			specs[i].Name(), res.NVDC[i], res.Baseline[i], sd)
	}
	o.printf("  paper: Q1 ~3.3x, Q20 ~78x\n")
	return res, nil
}

// fig11QueryNVDC builds a fresh NVDIMM-C system, loads the dataset, and
// times one query on it.
func fig11QueryNVDC(o Options, q tpch.QuerySpec, cacheBytes, datasetBytes int64) (sim.Duration, error) {
	cfg := nvdcConfig(0)
	cfg.CacheBytes = cacheBytes
	// NAND must hold the dataset.
	for int64(nand.Channels*nand.DiesPerChan*cfg.NAND.BlocksPerDie*cfg.NAND.PagesPerBlock)*PageSize < datasetBytes*3/2 {
		cfg.NAND.BlocksPerDie *= 2
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		return 0, err
	}
	db := imdb.New(s, s.K, s.Driver.CapacityPages()*PageSize, imdb.DefaultCost())
	built := false
	var buildErr error
	tpch.BuildDataset(db, tpch.Scale{TotalBytes: datasetBytes}, func(err error) {
		built, buildErr = true, err
	})
	if err := s.RunUntil(func() bool { return built }, 3600*sim.Second); err != nil {
		return 0, err
	}
	if buildErr != nil {
		return 0, buildErr
	}
	el, err := fig11RunOne(db, s.K.Step, s.K, q, datasetBytes)
	if err != nil {
		return 0, err
	}
	if err := s.CheckHealth(); err != nil {
		return 0, err
	}
	return el, nil
}

// fig11QueryBaseline is fig11QueryNVDC against the pmem comparator.
func fig11QueryBaseline(q tpch.QuerySpec, datasetBytes int64) (sim.Duration, error) {
	bd := pmem.New()
	db := imdb.New(bd, bd.K, bd.Capacity(), imdb.DefaultCost())
	built := false
	var buildErr error
	tpch.BuildDataset(db, tpch.Scale{TotalBytes: datasetBytes}, func(err error) {
		built, buildErr = true, err
	})
	for !built {
		if !bd.K.Step() {
			return 0, fmt.Errorf("build stalled")
		}
	}
	if buildErr != nil {
		return 0, buildErr
	}
	return fig11RunOne(db, bd.K.Step, bd.K, q, datasetBytes)
}

// fig11RunOne times a single query to completion on an already-built DB.
func fig11RunOne(db *imdb.DB, step func() bool, k tpch.Kernel, q tpch.QuerySpec, datasetBytes int64) (sim.Duration, error) {
	var el sim.Duration
	var qerr error
	doneQ := false
	tpch.RunQuery(db, k, q, datasetBytes, func(e sim.Duration, err error) {
		el, qerr, doneQ = e, err, true
	})
	for !doneQ {
		if !step() {
			return 0, fmt.Errorf("query stalled")
		}
	}
	if qerr != nil {
		return 0, qerr
	}
	return el, nil
}
