// Package metrics provides the measurement plumbing the benchmark harnesses
// share: latency histograms with percentile queries, bandwidth/IOPS meters
// over simulated time, and simple time series for the Fig. 7-style
// bandwidth-over-progress plots.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"nvdimmc/internal/sim"
)

// Histogram records latencies with log-spaced buckets plus exact min/max and
// a bounded reservoir for percentile estimation. Like every type in this
// package it is shard-local: one instance per sim instance, merged (if at
// all) by the experiment layer after its shards join.
type Histogram struct {
	count   uint64
	sum     sim.Duration
	min     sim.Duration
	max     sim.Duration
	samples []sim.Duration // reservoir
	seen    uint64
	rng     uint64
	// sorted caches the ascending reservoir between Records so repeated
	// Percentile queries (String alone makes two) cost one sort per batch of
	// observations instead of one per call.
	sorted []sim.Duration
	dirty  bool
}

// reservoirSize bounds per-histogram memory.
const reservoirSize = 4096

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, rng: 0x1234ABCD}
}

// Record adds one latency observation.
func (h *Histogram) Record(d sim.Duration) {
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.seen++
	if len(h.samples) < reservoirSize {
		h.samples = append(h.samples, d)
		h.dirty = true
		return
	}
	// Vitter's algorithm R.
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	if idx := h.rng % h.seen; idx < uint64(len(h.samples)) {
		h.samples[idx] = d
		h.dirty = true
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average latency (0 if empty).
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(int64(h.sum) / int64(h.count))
}

// Min and Max return the extremes (0 if empty).
func (h *Histogram) Min() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the maximum observation.
func (h *Histogram) Max() sim.Duration { return h.max }

// sortedSamples returns the reservoir in ascending order, re-sorting only
// when observations arrived since the last query.
func (h *Histogram) sortedSamples() []sim.Duration {
	if h.dirty || len(h.sorted) != len(h.samples) {
		h.sorted = append(h.sorted[:0], h.samples...)
		sort.Slice(h.sorted, func(i, j int) bool { return h.sorted[i] < h.sorted[j] })
		h.dirty = false
	}
	return h.sorted
}

// Percentile returns the p-th percentile (0 <= p <= 100) from the reservoir,
// linearly interpolating between neighbouring ranks. The former truncating
// nearest-rank index systematically biased tail percentiles (p99, p999) low
// whenever the exact rank fell between two samples.
func (h *Histogram) Percentile(p float64) sim.Duration {
	s := h.sortedSamples()
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + sim.Duration(math.Round(frac*float64(s[lo+1]-s[lo])))
}

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Merge folds o's observations into h without re-recording samples: count,
// sum and extremes combine exactly; the percentile reservoirs combine by
// proportional subsampling. Each reservoir is already a uniform sample of its
// stream, and any fixed-stride subset of a uniform sample is itself uniform,
// so the merged reservoir holds round(R * seen_h/total) strided picks from h
// and the rest from o — deterministic (no RNG draw), which the parallel pool
// harness relies on for byte-identical output at any worker count. o is not
// modified.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 {
		h.count, h.sum, h.min, h.max = o.count, o.sum, o.min, o.max
		h.seen = o.seen
		h.samples = append(h.samples[:0], o.samples...)
		h.dirty = true
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	total := h.seen + o.seen
	if len(h.samples)+len(o.samples) <= reservoirSize {
		h.samples = append(h.samples, o.samples...)
	} else {
		nh := int(float64(reservoirSize)*float64(h.seen)/float64(total) + 0.5)
		if nh > len(h.samples) {
			nh = len(h.samples)
		}
		no := reservoirSize - nh
		if no > len(o.samples) {
			no = len(o.samples)
			nh = reservoirSize - no
		}
		merged := make([]sim.Duration, 0, nh+no)
		merged = append(merged, stride(h.samples, nh)...)
		merged = append(merged, stride(o.samples, no)...)
		h.samples = merged
	}
	h.seen = total
	h.dirty = true
}

// stride returns n elements of s at evenly spaced positions (all of s when
// n >= len(s)).
func stride(s []sim.Duration, n int) []sim.Duration {
	if n >= len(s) {
		return s
	}
	if n <= 0 {
		return nil
	}
	out := make([]sim.Duration, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s[i*len(s)/n])
	}
	return out
}

// Meter accumulates operation and byte counts over a simulated interval and
// reports IOPS and bandwidth.
type Meter struct {
	start sim.Time
	end   sim.Time
	ops   uint64
	bytes uint64
}

// NewMeter starts measuring at now.
func NewMeter(now sim.Time) *Meter { return &Meter{start: now, end: now} }

// Record adds one completed operation of n bytes at time now.
func (m *Meter) Record(now sim.Time, n int) {
	m.ops++
	m.bytes += uint64(n)
	if now > m.end {
		m.end = now
	}
}

// Finish pins the measurement end (defaults to the last recorded op).
func (m *Meter) Finish(now sim.Time) {
	if now > m.end {
		m.end = now
	}
}

// Elapsed returns the measured interval.
func (m *Meter) Elapsed() sim.Duration { return m.end.Sub(m.start) }

// Ops returns completed operations.
func (m *Meter) Ops() uint64 { return m.ops }

// Bytes returns total bytes moved.
func (m *Meter) Bytes() uint64 { return m.bytes }

// IOPS returns operations per simulated second.
func (m *Meter) IOPS() float64 {
	e := m.Elapsed().Seconds()
	if e <= 0 {
		return 0
	}
	return float64(m.ops) / e
}

// KIOPS returns thousands of operations per second.
func (m *Meter) KIOPS() float64 { return m.IOPS() / 1e3 }

// BandwidthMBps returns bandwidth in decimal megabytes per second (the
// paper's unit).
func (m *Meter) BandwidthMBps() float64 {
	e := m.Elapsed().Seconds()
	if e <= 0 {
		return 0
	}
	return float64(m.bytes) / 1e6 / e
}

// Merge folds o's interval and totals into m: the merged span is
// [min(start), max(end)] — NOT the sum of elapsed times, which would
// double-count overlap when per-channel meters measured concurrently — and
// ops/bytes add. An empty meter (no recorded op and zero span) contributes
// nothing, so merging a never-used channel does not drag start to its boot
// instant. o is not modified.
func (m *Meter) Merge(o *Meter) {
	if o == nil || (o.ops == 0 && o.bytes == 0 && o.start == o.end) {
		return
	}
	if m.ops == 0 && m.bytes == 0 && m.start == m.end {
		*m = *o
		return
	}
	if o.start < m.start {
		m.start = o.start
	}
	if o.end > m.end {
		m.end = o.end
	}
	m.ops += o.ops
	m.bytes += o.bytes
}

// Series is a (x, value) sequence for bandwidth-over-progress plots.
type Series struct {
	Name   string
	X      []float64
	Values []float64
}

// Add appends one point.
func (s *Series) Add(x, v float64) {
	s.X = append(s.X, x)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// Mean returns the average of the values (0 if empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Counters is a named-counter set for error/retry/degradation accounting:
// the driver and device models count every fault-handling transition here so
// tests (and core.CheckHealth) can assert exactly which recovery paths ran.
// Names are registered implicitly on first use; iteration is sorted so output
// is deterministic. Sorting happens lazily in Names/String — registration is
// O(1) — and a Counters is shard-local under the parallel experiment
// harness: each sharded sim instance owns its set, never shared across
// goroutines, and the merge step reads them only after the shard joins.
type Counters struct {
	// idx maps a name to its slot; a slot exists once a name is added or a
	// handle asks for it. names lists the registered names (those added to
	// at least once), the only ones reads report.
	idx    map[string]int
	slots  []counterSlot
	names  []string
	sorted bool
	// changes counts Add calls, so a reader caching a sum over some names
	// can tell whether any counter may have moved since (Changes).
	changes uint64
}

type counterSlot struct {
	name string
	v    uint64
	live bool // registered: added to at least once
}

// Counter is a handle on one named counter of a Counters set: Add and Inc
// index the set's value slice instead of looking the name up. Taking a
// handle does not register the name; its first Add does, exactly as a
// named Add would, so a set read through Names, String or Snapshot cannot
// tell handles from names.
type Counter struct {
	c *Counters
	i int
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{idx: make(map[string]int)}
}

// slot returns name's slot index, creating an unregistered one if needed.
func (c *Counters) slot(name string) int {
	i, ok := c.idx[name]
	if !ok {
		i = len(c.slots)
		c.idx[name] = i
		c.slots = append(c.slots, counterSlot{name: name})
	}
	return i
}

// add adds n to slot i, registering its name on first use.
func (c *Counters) add(i int, n uint64) {
	sl := &c.slots[i]
	if !sl.live {
		sl.live = true
		c.names = append(c.names, sl.name)
		c.sorted = false
	}
	sl.v += n
	c.changes++
}

// Counter returns a handle on the named counter.
func (c *Counters) Counter(name string) Counter { return Counter{c: c, i: c.slot(name)} }

// Add adds n to the counter.
func (h Counter) Add(n uint64) { h.c.add(h.i, n) }

// Inc adds one to the counter.
func (h Counter) Inc() { h.c.add(h.i, 1) }

// Inc adds one to the named counter.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Add adds n to the named counter. First-use registration is O(1): the name
// list is sorted lazily on read (the old eager re-sort per registration was
// O(n^2 log n) across a run).
func (c *Counters) Add(name string, n uint64) { c.add(c.slot(name), n) }

// Changes returns how many times Add (Inc, Merge) has run on c. It only
// grows, so a sum cached against it stays valid while it stands still.
func (c *Counters) Changes() uint64 { return c.changes }

// Get returns the named counter's value (0 if never touched).
func (c *Counters) Get(name string) uint64 {
	if i, ok := c.idx[name]; ok {
		return c.slots[i].v
	}
	return 0
}

// sortNames establishes the sorted order readers rely on.
func (c *Counters) sortNames() {
	if !c.sorted {
		sort.Strings(c.names)
		c.sorted = true
	}
}

// Names returns the registered counter names in sorted order.
func (c *Counters) Names() []string {
	c.sortNames()
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.names))
	for _, n := range c.names {
		out[n] = c.Get(n)
	}
	return out
}

// Merge adds every counter in o into c (registering names as needed). o's
// sorted-name order drives iteration, so registration order in c — and with
// it String/Names output — is independent of map iteration. o is not
// modified beyond the lazy sort of its name list.
func (c *Counters) Merge(o *Counters) {
	if o == nil {
		return
	}
	o.sortNames()
	for _, n := range o.names {
		c.Add(n, o.Get(n))
	}
}

// MergePrefixed folds o's counters into c under prefix+name, in o's sorted
// name order (deterministic like Merge). The NUMA fabric uses it to keep N
// sockets' pool counters distinguishable in one flat table ("s0/retry-ok",
// "s1/retry-ok") without inventing a nested counter type.
func (c *Counters) MergePrefixed(prefix string, o *Counters) {
	if o == nil {
		return
	}
	o.sortNames()
	for _, n := range o.names {
		c.Add(prefix+n, o.Get(n))
	}
}

// Sum returns the total of the named counters (names never touched count
// zero). Health probes use it to fold a family of error counters into one
// rate-comparable figure.
func (c *Counters) Sum(names ...string) uint64 {
	var t uint64
	for _, n := range names {
		t += c.Get(n)
	}
	return t
}

// NonZero reports whether any of the given counters is nonzero, returning
// the first offender's name and value.
func (c *Counters) NonZero(names ...string) (string, uint64, bool) {
	for _, n := range names {
		if v := c.Get(n); v != 0 {
			return n, v, true
		}
	}
	return "", 0, false
}

func (c *Counters) String() string {
	if len(c.names) == 0 {
		return "{}"
	}
	c.sortNames()
	parts := make([]string, 0, len(c.names))
	for _, n := range c.names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, c.Get(n)))
	}
	return "{" + joinStrings(parts, " ") + "}"
}

// joinStrings avoids importing strings for one call site.
func joinStrings(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}
