package nvdc

import (
	"reflect"
	"testing"

	"nvdimmc/internal/sim"
)

// hitsOf replays trace and reports which accesses hit.
func hitsOf(p Policy, slots int, trace []int64) []bool {
	out := make([]bool, len(trace))
	var prev uint64
	for i := range trace {
		h := Replay(p, slots, trace[:i+1]).Hits
		out[i], prev = h > prev, h
	}
	return out
}

func TestLRUBasics(t *testing.T) {
	// 1 and 2 are cold, 1 hits, 3 evicts 2 (LRU), 2 evicts 1, then both
	// resident pages hit.
	got := hitsOf(PolicyLRU, 2, []int64{1, 2, 1, 3, 2, 3, 2})
	if want := []bool{false, false, true, false, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hits %v, want %v", got, want)
	}
}

func TestLRCIgnoresHits(t *testing.T) {
	// The hit on 1 must NOT refresh its position under LRC: 3 evicts 1,
	// the first cached page.
	got := hitsOf(PolicyLRC, 2, []int64{1, 2, 1, 3, 1})
	if want := []bool{false, false, true, false, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hits %v, want %v: LRC kept the first-cached page", got, want)
	}
}

func TestLRUBeatsLRCOnReuseTrace(t *testing.T) {
	// Hot/cold trace: a small hot set reused between cold streams. LRU
	// keeps the hot set; LRC streams it out — the §VII-B5 motivation.
	var trace []int64
	rng := sim.NewRand(42)
	for i := 0; i < 30000; i++ {
		if rng.Intn(100) < 70 {
			trace = append(trace, rng.Int63n(50)) // hot set: 50 pages
		} else {
			trace = append(trace, 1000+rng.Int63n(100000)) // cold stream
		}
	}
	slots := 200
	lru := Replay(PolicyLRU, slots, trace)
	lrc := Replay(PolicyLRC, slots, trace)
	if lru.HitRate() <= lrc.HitRate() {
		t.Fatalf("LRU (%.1f%%) not better than LRC (%.1f%%)", 100*lru.HitRate(), 100*lrc.HitRate())
	}
	if lru.HitRate() < 0.6 {
		t.Fatalf("LRU hit rate %.1f%% too low for 70%% hot trace", 100*lru.HitRate())
	}
}

func TestClockApproximatesLRU(t *testing.T) {
	var trace []int64
	rng := sim.NewRand(9)
	for i := 0; i < 20000; i++ {
		if rng.Intn(100) < 60 {
			trace = append(trace, rng.Int63n(80))
		} else {
			trace = append(trace, 1000+rng.Int63n(50000))
		}
	}
	slots := 150
	lru := Replay(PolicyLRU, slots, trace)
	clk := Replay(PolicyClock, slots, trace)
	lrc := Replay(PolicyLRC, slots, trace)
	if clk.HitRate() < lrc.HitRate() {
		t.Fatalf("CLOCK (%.1f%%) worse than LRC (%.1f%%)", 100*clk.HitRate(), 100*lrc.HitRate())
	}
	if diff := lru.HitRate() - clk.HitRate(); diff > 0.15 {
		t.Fatalf("CLOCK trails LRU by %.1f points", 100*diff)
	}
}

func TestHitRateMonotonicWithSize(t *testing.T) {
	var trace []int64
	rng := sim.NewRand(5)
	for i := 0; i < 20000; i++ {
		trace = append(trace, rng.Int63n(2000))
	}
	sizes := []int{100, 200, 400, 800, 1600}
	var res []ReplayResult
	for _, n := range sizes {
		res = append(res, Replay(PolicyLRU, n, trace))
	}
	for i := 1; i < len(res); i++ {
		if res[i].HitRate()+1e-9 < res[i-1].HitRate() {
			t.Fatalf("hit rate dropped with larger cache: %v -> %v", res[i-1], res[i])
		}
	}
}

func TestFullResidencyHitsAlways(t *testing.T) {
	// Cache bigger than the working set: everything after the cold misses
	// must hit, for all policies.
	var trace []int64
	for round := 0; round < 10; round++ {
		for p := int64(0); p < 100; p++ {
			trace = append(trace, p)
		}
	}
	for _, pol := range []Policy{PolicyLRC, PolicyLRU, PolicyClock} {
		r := Replay(pol, 128, trace)
		if r.Hits != uint64(len(trace)-100) {
			t.Fatalf("%v: hits=%d want %d", pol, r.Hits, len(trace)-100)
		}
	}
}

func TestColdMissClassification(t *testing.T) {
	r := Replay(PolicyLRU, 1, []int64{1, 2, 1}) // the second 1 is a capacity miss, not cold
	if r.ColdMisses != 2 {
		t.Fatalf("cold misses = %d, want 2", r.ColdMisses)
	}
	if r.Accesses != 3 || r.Hits != 0 {
		t.Fatalf("unexpected: %+v", r)
	}
}

func TestEvictionCount(t *testing.T) {
	r := Replay(PolicyLRU, 2, []int64{1, 2, 3, 4})
	if r.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", r.Evictions)
	}
}
