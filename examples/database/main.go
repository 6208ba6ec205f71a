// Database runs the mini column-store IMDB (the HANA stand-in) on both the
// NVDIMM-C module and the pmem baseline, executing a scan-heavy and a
// probe-heavy TPC-H-style query on each — the Fig. 11 contrast in miniature
// — then a validated mixed-load burst on NVDIMM-C.
package main

import (
	"fmt"
	"log"

	"nvdimmc"
	"nvdimmc/internal/imdb"
	"nvdimmc/internal/pmem"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/tpch"
)

func main() {
	const dataset = 8 << 20 // 8 MB dataset over a ~1.3 MB cache

	// NVDIMM-C system scaled so the dataset exceeds the cache ~6x.
	cfg := nvdimmc.DefaultConfig()
	cfg.CacheBytes = 1 << 20
	sys, err := nvdimmc.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ndb := imdb.New(sys, sys.K, sys.FTL.Capacity(), imdb.DefaultCost())

	base := pmem.New()
	bdb := imdb.New(base, base.K, base.Capacity(), imdb.DefaultCost())

	fmt.Println("building the TPC-H-like dataset on both devices...")
	buildOn := func(db *imdb.DB, step func() bool) {
		done := false
		tpch.BuildDataset(db, tpch.Scale{TotalBytes: dataset}, func(err error) {
			if err != nil {
				log.Fatal(err)
			}
			done = true
		})
		for !done {
			if !step() {
				log.Fatal("build stalled")
			}
		}
	}
	buildOn(ndb, sys.K.Step)
	buildOn(bdb, base.K.Step)

	specs := tpch.Specs()
	for _, q := range []tpch.QuerySpec{specs[0], specs[19]} { // Q1, Q20
		nd := runQuery(ndb, sys.K.Step, sys.K, q, dataset)
		bd := runQuery(bdb, base.K.Step, base.K, q, dataset)
		fmt.Printf("%-4s nvdimm-c=%-12v baseline=%-12v slowdown=%.1fx\n",
			q.Name(), nd, bd, float64(nd)/float64(bd))
	}

	fmt.Println("\nmixed-load burst with per-transaction validation:")
	m, err := imdb.NewMixedLoad(ndb, 1000, 256)
	if err != nil {
		log.Fatal(err)
	}
	done := false
	m.Init(func() {
		m.Run(64, 10, func() { done = true })
	})
	if err := sys.RunUntil(func() bool { return done }, 600*sim.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d transactions, %d validation failures\n", m.Transactions, m.ValidationFailures)
	if err := sys.CheckHealth(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  health: OK")
}

func runQuery(db *imdb.DB, step func() bool, k tpch.Kernel, q tpch.QuerySpec, dataset int64) sim.Duration {
	var el sim.Duration
	done := false
	tpch.RunQuery(db, k, q, dataset, func(e sim.Duration, err error) {
		if err != nil {
			log.Fatal(err)
		}
		el, done = e, true
	})
	for !done {
		if !step() {
			log.Fatal("query stalled")
		}
	}
	return el
}
