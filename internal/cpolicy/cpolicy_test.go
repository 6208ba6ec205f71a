package cpolicy

import (
	"testing"

	"nvdimmc/internal/sim"
)

func TestLRUBasics(t *testing.T) {
	s := New(LRU, 2)
	if s.Access(1) || s.Access(2) {
		t.Fatal("cold accesses hit")
	}
	if !s.Access(1) {
		t.Fatal("resident page missed")
	}
	s.Access(3) // evicts 2 (LRU)
	if s.Access(2) {
		t.Fatal("evicted page hit")
	}
	if !s.Access(3) || !s.Access(2) {
		t.Fatal("wrong victims")
	}
}

func TestLRCIgnoresHits(t *testing.T) {
	s := New(LRC, 2)
	s.Access(1)
	s.Access(2)
	s.Access(1) // hit: must NOT refresh 1's position under LRC
	s.Access(3) // evicts 1 (first cached)
	if s.Access(1) {
		t.Fatal("LRC kept the first-cached page")
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
	lru := Replay(LRU, slots, trace)
	lrc := Replay(LRC, slots, trace)
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
	lru := Replay(LRU, slots, trace)
	clk := Replay(Clock, slots, trace)
	lrc := Replay(LRC, slots, trace)
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
	var res []Result
	for _, n := range sizes {
		res = append(res, Replay(LRU, n, trace))
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
	for _, pol := range []Policy{LRC, LRU, Clock} {
		r := Replay(pol, 128, trace)
		if r.Hits != uint64(len(trace)-100) {
			t.Fatalf("%v: hits=%d want %d", pol, r.Hits, len(trace)-100)
		}
	}
}

func TestColdMissClassification(t *testing.T) {
	s := New(LRU, 1)
	s.Access(1)
	s.Access(2)
	s.Access(1) // capacity miss, not cold
	r := s.Result()
	if r.ColdMisses != 2 {
		t.Fatalf("cold misses = %d, want 2", r.ColdMisses)
	}
	if r.Accesses != 3 || r.Hits != 0 {
		t.Fatalf("unexpected: %+v", r)
	}
}

func TestEvictionCount(t *testing.T) {
	r := Replay(LRU, 2, []int64{1, 2, 3, 4})
	if r.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", r.Evictions)
	}
}
