package core_test

import (
	"testing"

	"nvdimmc/internal/core"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/workload/openloop"
)

// TestZeroSourceUntouchedByPool runs a write-heavy pooled workload on 8
// epoch workers (under -race, the detector proves no member's fio
// buffers are shared across workers) and then checks that every member's
// zero source is still all zeros.
func TestZeroSourceUntouchedByPool(t *testing.T) {
	member := core.DefaultConfig()
	member.CacheBytes = 1 << 20
	member.NAND.BlocksPerDie = 32
	member.NAND.PagesPerBlock = 16
	p, err := pool.New(pool.Config{
		Channels: 8, DIMMsPerChannel: 1, Interleave: 4096,
		Member: member, Workers: 8, Seed: 3, PrefillPages: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := openloop.New(openloop.Config{
		Seed: 5, RatePerSec: 2e6,
		Tenants: []openloop.Tenant{{Name: "w", Dist: openloop.Uniform, ReadPct: 20,
			Footprint: p.CachedFootprint()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.RunOpenLoop(p, gen, 400, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Members(); i++ {
		z := p.Member(i).ZeroSource()
		if len(z) == 0 {
			t.Fatalf("member %d: no fio write ran", i)
		}
		for j, b := range z {
			if b != 0 {
				t.Fatalf("member %d: zero source byte %d = %#x", i, j, b)
			}
		}
	}
}
