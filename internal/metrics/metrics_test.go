package metrics

import (
	"fmt"
	"testing"

	"nvdimmc/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != sim.Microsecond || h.Max() != 100*sim.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	mean := h.Mean()
	if mean < 50*sim.Microsecond || mean > 51*sim.Microsecond {
		t.Fatalf("mean = %v, want ~50.5us", mean)
	}
	p50 := h.Percentile(50)
	if p50 < 45*sim.Microsecond || p50 > 56*sim.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	if h.Percentile(100) != h.Max() {
		t.Fatalf("p100 = %v != max %v", h.Percentile(100), h.Max())
	}
}

// TestHistogramPercentileExact pins Percentile against hand-computed values
// on known sample sets: interpolation between ranks, exact endpoints, and no
// low bias at the tail (the old truncating index returned s[floor(rank)]).
func TestHistogramPercentileExact(t *testing.T) {
	// 1..100: rank(p) = p/100 * 99.
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i))
	}
	cases := []struct {
		p    float64
		want sim.Duration
	}{
		{0, 1},
		{100, 100},
		{50, 51},    // rank 49.5 -> 50 + round(0.5*1)
		{25, 26},    // rank 24.75 -> 25 + round(0.75*1)
		{99, 99},    // rank 98.01 -> 99 + round(0.01*1)
		{75, 75},    // rank 74.25 -> 75 + round(0.25*1)
		{99.9, 100}, // rank 98.901 -> 99 + round(0.901*1)
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}

	// Four widely spaced samples: the tail must interpolate toward the max,
	// not truncate down a full gap.
	h2 := NewHistogram()
	for _, d := range []sim.Duration{10, 20, 30, 40} {
		h2.Record(d)
	}
	if got := h2.Percentile(99.9); got != 40 { // rank 2.997 -> 30 + round(0.997*10)
		t.Errorf("p99.9 of {10,20,30,40} = %v, want 40 (old nearest-rank gave 30)", got)
	}
	if got := h2.Percentile(50); got != 25 { // rank 1.5 -> 20 + round(0.5*10)
		t.Errorf("p50 of {10,20,30,40} = %v, want 25", got)
	}
}

// TestHistogramPercentileCacheInvalidation: the sorted cache must be rebuilt
// after new observations, including reservoir replacements once full.
func TestHistogramPercentileCacheInvalidation(t *testing.T) {
	h := NewHistogram()
	h.Record(10)
	if got := h.Percentile(100); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
	h.Record(99)
	if got := h.Percentile(100); got != 99 {
		t.Fatalf("p100 after new sample = %v, want 99 (stale sorted cache?)", got)
	}
	// Fill the reservoir and keep recording: replacements must also
	// invalidate. Record a constant so any replacement is observable.
	for i := 0; i < 10*reservoirSize; i++ {
		h.Record(7)
	}
	if got := h.Percentile(50); got != 7 {
		t.Fatalf("p50 after flooding with 7s = %v, want 7", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Percentile(99) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
}

func TestHistogramReservoirBounded(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100000; i++ {
		h.Record(sim.Duration(i))
	}
	if len(h.samples) > reservoirSize {
		t.Fatalf("reservoir grew to %d", len(h.samples))
	}
	if h.Count() != 100000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter(0)
	m.Record(sim.Time(sim.Millisecond), 4096)
	m.Record(sim.Time(2*sim.Millisecond), 4096)
	if m.Ops() != 2 || m.Bytes() != 8192 {
		t.Fatalf("ops/bytes = %d/%d", m.Ops(), m.Bytes())
	}
	// 8192 B over 2 ms = 4.096 MB/s.
	if bw := m.BandwidthMBps(); bw < 4.0 || bw > 4.2 {
		t.Fatalf("bandwidth = %v", bw)
	}
	if iops := m.IOPS(); iops < 999 || iops > 1001 {
		t.Fatalf("IOPS = %v", iops)
	}
	if m.KIOPS() != m.IOPS()/1000 {
		t.Fatal("KIOPS mismatch")
	}
}

func TestMeterFinishExtends(t *testing.T) {
	m := NewMeter(0)
	m.Record(sim.Time(sim.Millisecond), 1000)
	m.Finish(sim.Time(2 * sim.Millisecond))
	if m.Elapsed() != 2*sim.Millisecond {
		t.Fatalf("elapsed = %v", m.Elapsed())
	}
}

func TestMeterEmpty(t *testing.T) {
	m := NewMeter(0)
	if m.IOPS() != 0 || m.BandwidthMBps() != 0 {
		t.Fatal("empty meter reports throughput")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(0.1, 10)
	s.Add(0.2, 30)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Mean() != 20 {
		t.Fatalf("mean = %v", s.Mean())
	}
	var empty Series
	if empty.Mean() != 0 {
		t.Fatal("empty series mean")
	}
}

// TestCountersLazySort: registration order must not leak into reads, and
// names registered after a read must still come back sorted.
func TestCountersLazySort(t *testing.T) {
	c := NewCounters()
	c.Inc("zeta")
	c.Inc("alpha")
	c.Add("mid", 3)
	got := c.Names()
	if len(got) != 3 || got[0] != "alpha" || got[1] != "mid" || got[2] != "zeta" {
		t.Fatalf("Names() = %v, want sorted", got)
	}
	// Register more after the sort; the next read must re-sort.
	c.Inc("aardvark")
	c.Inc("beta")
	got = c.Names()
	want := []string{"aardvark", "alpha", "beta", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() after late registration = %v, want %v", got, want)
		}
	}
	if s := c.String(); s != "{aardvark=1 alpha=1 beta=1 mid=3 zeta=1}" {
		t.Fatalf("String() = %q", s)
	}
}

// TestHistogramMerge: exact fields (count, sum, min, max) combine exactly,
// percentiles of the merged reservoir land between the inputs, and merging
// into an empty histogram copies the other side.
func TestHistogramMerge(t *testing.T) {
	a := NewHistogram()
	b := NewHistogram()
	for i := 1; i <= 1000; i++ {
		a.Record(sim.Duration(i) * sim.Microsecond) // 1..1000 us
		b.Record(sim.Duration(i+2000) * sim.Microsecond)
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("count = %d, want 2000", a.Count())
	}
	if a.Min() != sim.Microsecond || a.Max() != 3000*sim.Microsecond {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
	wantMean := (1000*1001/2 + 1000*2001 + 1000*1001/2) / 2000
	if got := a.Mean().Microseconds(); got < float64(wantMean)*0.99 || got > float64(wantMean)*1.01 {
		t.Fatalf("mean = %vus, want ~%dus", got, wantMean)
	}
	// b's samples all exceed a's, so p50 of the merge must sit at the seam.
	if p := a.Percentile(50); p < 900*sim.Microsecond || p > 2100*sim.Microsecond {
		t.Fatalf("merged p50 = %v", p)
	}
	if p := a.Percentile(99); p < 2500*sim.Microsecond {
		t.Fatalf("merged p99 = %v, want in b's upper range", p)
	}

	empty := NewHistogram()
	empty.Merge(a)
	if empty.Count() != a.Count() || empty.Max() != a.Max() || empty.Min() != a.Min() {
		t.Fatal("merge into empty did not copy")
	}
	before := a.Count()
	a.Merge(NewHistogram())
	if a.Count() != before {
		t.Fatal("merging an empty histogram changed the receiver")
	}
}

// TestHistogramMergeReservoirBounded: merging two full reservoirs stays
// within reservoirSize and keeps proportional representation.
func TestHistogramMergeReservoirBounded(t *testing.T) {
	a := NewHistogram()
	b := NewHistogram()
	for i := 0; i < 3*reservoirSize; i++ {
		a.Record(10) // 3R observations of 10
	}
	for i := 0; i < reservoirSize; i++ {
		b.Record(1000) // R observations of 1000
	}
	a.Merge(b)
	if len(a.samples) > reservoirSize {
		t.Fatalf("merged reservoir grew to %d", len(a.samples))
	}
	// a carried 3/4 of the observations: the merged median must be a's value
	// and the tail must still see b's.
	if p := a.Percentile(50); p != 10 {
		t.Fatalf("merged p50 = %v, want 10", p)
	}
	if p := a.Percentile(90); p != 1000 {
		t.Fatalf("merged p90 = %v, want 1000 (b underrepresented)", p)
	}
}

// TestHistogramMergeDeterministic: merging the same inputs twice yields
// identical reservoirs (no RNG draw involved).
func TestHistogramMergeDeterministic(t *testing.T) {
	build := func() *Histogram {
		a := NewHistogram()
		b := NewHistogram()
		for i := 0; i < 2*reservoirSize; i++ {
			a.Record(sim.Duration(i))
			b.Record(sim.Duration(i * 7))
		}
		a.Merge(b)
		return a
	}
	x, y := build(), build()
	for _, p := range []float64{1, 25, 50, 75, 99, 99.9} {
		if x.Percentile(p) != y.Percentile(p) {
			t.Fatalf("p%v diverged: %v vs %v", p, x.Percentile(p), y.Percentile(p))
		}
	}
}

// TestMeterMerge: the merged span is min(start)/max(end) — not the elapsed
// sum, which would double-count the overlap of concurrently measuring
// channels — and ops/bytes add.
func TestMeterMerge(t *testing.T) {
	a := NewMeter(sim.Time(1 * sim.Millisecond))
	a.Record(sim.Time(3*sim.Millisecond), 1000)
	b := NewMeter(sim.Time(2 * sim.Millisecond))
	b.Record(sim.Time(5*sim.Millisecond), 3000)
	a.Merge(b)
	if a.Ops() != 2 || a.Bytes() != 4000 {
		t.Fatalf("ops/bytes = %d/%d", a.Ops(), a.Bytes())
	}
	// Span must be [1ms, 5ms] = 4ms, not (3-1)+(5-2) = 5ms.
	if a.Elapsed() != 4*sim.Millisecond {
		t.Fatalf("elapsed = %v, want 4ms (min start / max end)", a.Elapsed())
	}
	// 4000 B over 4 ms = 1 MB/s.
	if bw := a.BandwidthMBps(); bw < 0.99 || bw > 1.01 {
		t.Fatalf("bandwidth = %v", bw)
	}

	// An idle meter (started but never recorded) must not drag the span.
	idle := NewMeter(0)
	a.Merge(idle)
	if a.Elapsed() != 4*sim.Millisecond {
		t.Fatalf("idle merge moved the span: %v", a.Elapsed())
	}
	// Merging into an empty meter copies the live one.
	e := NewMeter(0)
	e.Merge(a)
	if e.Ops() != 2 || e.Elapsed() != 4*sim.Millisecond {
		t.Fatalf("empty merge: ops=%d elapsed=%v", e.Ops(), e.Elapsed())
	}
}

// TestCountersMerge: values add, names register, receiver order is sorted.
func TestCountersMerge(t *testing.T) {
	a := NewCounters()
	a.Add("shared", 2)
	a.Inc("only-a")
	b := NewCounters()
	b.Add("shared", 3)
	b.Add("only-b", 7)
	a.Merge(b)
	if a.Get("shared") != 5 || a.Get("only-a") != 1 || a.Get("only-b") != 7 {
		t.Fatalf("merged = %v", a)
	}
	if s := a.String(); s != "{only-a=1 only-b=7 shared=5}" {
		t.Fatalf("String() = %q", s)
	}
	if b.Get("shared") != 3 {
		t.Fatal("merge modified the source")
	}
	a.Merge(nil) // must be a no-op
	if a.Get("shared") != 5 {
		t.Fatal("nil merge changed receiver")
	}
}

func TestCountersMergePrefixed(t *testing.T) {
	a := NewCounters()
	a.Add("shared", 2)
	b := NewCounters()
	b.Add("shared", 3)
	b.Add("only-b", 7)
	a.MergePrefixed("s1/", b)
	if a.Get("shared") != 2 || a.Get("s1/shared") != 3 || a.Get("s1/only-b") != 7 {
		t.Fatalf("merged = %v", a)
	}
	if s := a.String(); s != "{s1/only-b=7 s1/shared=3 shared=2}" {
		t.Fatalf("String() = %q", s)
	}
	if b.Get("shared") != 3 {
		t.Fatal("prefixed merge modified the source")
	}
	a.MergePrefixed("s2/", nil) // must be a no-op
	if len(a.Names()) != 3 {
		t.Fatal("nil prefixed merge changed receiver")
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Record(sim.Microsecond)
	if h.String() == "" {
		t.Fatal("empty string")
	}
}

// TestCountersSum also checks Changes, the count a cached sum is keyed on:
// every Add, Inc and merged counter moves it, reads never do.
func TestCountersSum(t *testing.T) {
	c := NewCounters()
	c.Add("a", 3)
	c.Add("b", 5)
	if got := c.Sum("a", "b", "missing"); got != 8 {
		t.Fatalf("Sum = %d, want 8 (missing names count zero)", got)
	}
	if got := c.Sum(); got != 0 {
		t.Fatalf("empty Sum = %d, want 0", got)
	}
	_, _ = c.Get("a"), c.String()
	if n := c.Changes(); n != 2 {
		t.Fatalf("Changes after two Adds and reads = %d, want 2", n)
	}
	c.Inc("a")
	c.Add("c", 0)
	o := NewCounters()
	o.Inc("x")
	o.Inc("y")
	c.Merge(o)
	if n := c.Changes(); n != 6 {
		t.Fatalf("Changes after Inc, Add of zero and a two-name Merge = %d, want 6", n)
	}
}

// TestCounterHandles: a handle shares its counter with the name, registers
// the name only on its first Add, and moves Changes like a named Add, so a
// set driven through handles reads exactly like one driven by name.
func TestCounterHandles(t *testing.T) {
	byName, byHandle := NewCounters(), NewCounters()
	hit, miss := byHandle.Counter("hit"), byHandle.Counter("miss")
	byHandle.Counter("never") // taken, never added to
	if got := byHandle.Names(); len(got) != 0 {
		t.Fatalf("Names() after taking handles = %v, want none registered", got)
	}
	if s := byHandle.String(); s != "{}" {
		t.Fatalf("String() after taking handles = %q, want {}", s)
	}
	if byHandle.Changes() != 0 {
		t.Fatalf("taking handles moved Changes to %d", byHandle.Changes())
	}
	miss.Add(2)
	byName.Add("miss", 2)
	hit.Inc()
	byName.Inc("hit")
	byHandle.Inc("hit") // the name and the handle address one counter
	byName.Inc("hit")
	hit.Add(0)
	byName.Add("hit", 0)
	if byHandle.String() != byName.String() || fmt.Sprint(byHandle.Names()) != fmt.Sprint(byName.Names()) {
		t.Fatalf("handle-driven %s %v, name-driven %s %v",
			byHandle.String(), byHandle.Names(), byName.String(), byName.Names())
	}
	if fmt.Sprint(byHandle.Snapshot()) != fmt.Sprint(byName.Snapshot()) {
		t.Fatalf("Snapshot: handle-driven %v, name-driven %v", byHandle.Snapshot(), byName.Snapshot())
	}
	if byHandle.Get("hit") != 2 || byHandle.Get("never") != 0 || byHandle.Sum("hit", "miss", "never") != 4 {
		t.Fatalf("Get/Sum: hit=%d never=%d sum=%d", byHandle.Get("hit"), byHandle.Get("never"),
			byHandle.Sum("hit", "miss", "never"))
	}
	if _, _, nz := byHandle.NonZero("never"); nz {
		t.Fatal("NonZero reported a never-added handle")
	}
	if byHandle.Changes() != byName.Changes() {
		t.Fatalf("Changes: handle-driven %d, name-driven %d", byHandle.Changes(), byName.Changes())
	}
	merged, prefixed := NewCounters(), NewCounters()
	merged.Merge(byHandle)
	prefixed.MergePrefixed("s0/", byHandle)
	if merged.String() != "{hit=2 miss=2}" || prefixed.String() != "{s0/hit=2 s0/miss=2}" {
		t.Fatalf("merges carried %s and %s", merged.String(), prefixed.String())
	}
	if allocs := testing.AllocsPerRun(100, func() { hit.Inc(); miss.Add(3) }); allocs != 0 {
		t.Fatalf("handle Add allocates %v times", allocs)
	}
}
