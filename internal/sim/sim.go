// Package sim provides the discrete-event simulation kernel that every
// hardware and software model in this repository runs on.
//
// Time is measured in integer picoseconds so that DDR4 clock periods are
// exact (DDR4-1600 tCK = 1250 ps). The kernel is a deterministic binary-heap
// event queue: events scheduled for the same instant fire in the order they
// were scheduled, so simulations are reproducible run-to-run.
package sim

import (
	"fmt"
)

// Time is an absolute simulation instant in picoseconds since reset.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Nanoseconds reports d as floating-point nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds reports d as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Microseconds())
	case d >= Nanosecond:
		return fmt.Sprintf("%.3fns", d.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier instant u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. Events are stored by value in the kernel's
// heap slice: scheduling never heap-allocates, so the hot Schedule/Step loop
// every model runs on is allocation-free in steady state.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// less orders events by time, then by scheduling order (FIFO at an instant).
func (e event) less(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is the simulation event loop. The zero value is not usable; create
// one with NewKernel.
//
// The event queue is a hand-rolled binary min-heap over a value-typed slice
// rather than container/heap: the interface-based API boxes every Push/Pop
// element, which costs one allocation per scheduled event — measurable on
// runs that process hundreds of millions of events. See
// BenchmarkKernelScheduleStep.
type Kernel struct {
	now    Time
	seq    uint64
	events []event
	// nProcessed counts events executed since reset, for diagnostics and
	// runaway detection in tests.
	nProcessed uint64
	// negDelays counts Schedule calls that had to clamp a negative delay,
	// and Resource grants that had to clamp a negative hold — a causality
	// bug in the caller. core.CheckHealth asserts it is zero.
	negDelays uint64
	// reservedUntil is the latest instant a sequence number was reserved
	// for (reserve): Run ends no earlier, as if every reserved event had
	// been pushed and fired.
	reservedUntil Time
}

// NewKernel returns a kernel at time zero with an empty event queue.
func NewKernel() *Kernel {
	return &Kernel{}
}

// push appends e and restores the heap invariant (sift-up).
func (k *Kernel) push(e event) {
	h := append(k.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.events = h
}

// popRoot removes the earliest event (sift-down). The vacated tail slot is
// zeroed so the slice does not retain the callback closure.
func (k *Kernel) popRoot() {
	h := k.events
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		min := i
		if l := 2*i + 1; l < n && h[l].less(h[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && h[r].less(h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	k.events = h
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events still queued.
func (k *Kernel) Pending() int { return len(k.events) }

// NextAt peeks at the earliest queued event's timestamp without executing
// it; ok is false when the queue is empty. Schedulers use it to prove a
// kernel idle through a horizon before skipping event-by-event execution.
func (k *Kernel) NextAt() (t Time, ok bool) {
	if len(k.events) == 0 {
		return 0, false
	}
	return k.events[0].at, true
}

// Processed reports the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.nProcessed }

// Schedule queues fn to run d picoseconds from now. A negative delay is an
// error in the caller; it is clamped to zero so the event still fires (at the
// current instant, after already-queued same-instant events), and counted in
// NegativeDelays so health checks can surface the causality bug instead of
// letting the clamp hide it.
func (k *Kernel) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
		k.negDelays++
	}
	k.seq++
	k.push(event{at: k.now.Add(d), seq: k.seq, fn: fn})
}

// ScheduleAt queues fn to run at absolute time t (clamped to now).
// Scheduling at or before the current instant is the legitimate "as soon as
// possible, after already-queued work" idiom, so the clamp here is not
// counted as a causality bug.
func (k *Kernel) ScheduleAt(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.push(event{at: t, seq: k.seq, fn: fn})
}

// reserve takes the sequence number an event at t (not before now) would
// get from ScheduleAt, without queueing anything. An event pushed later at
// t under that number fires exactly where the ScheduleAt would have; one
// never pushed is one that would have done nothing.
func (k *Kernel) reserve(t Time) uint64 {
	k.seq++
	if t > k.reservedUntil {
		k.reservedUntil = t
	}
	return k.seq
}

// RetimeLone moves the kernel's only pending event to t (clamped to now)
// under a fresh sequence number, as if it had fired as a no-op and been
// scheduled again with ScheduleAt(t). It reports false, changing nothing,
// unless exactly one event is pending.
func (k *Kernel) RetimeLone(t Time) bool {
	if len(k.events) != 1 {
		return false
	}
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.events[0].at, k.events[0].seq = t, k.seq
	return true
}

// NegativeDelays reports how many Schedule calls passed a negative delay,
// and how many Resource grants asked for a negative hold, clamped to zero.
// A nonzero value means some model computed an event time in the past;
// core.CheckHealth fails on it.
func (k *Kernel) NegativeDelays() uint64 { return k.negDelays }

// Step executes the single earliest event. It reports false when the queue
// is empty.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	e := k.events[0]
	k.popRoot()
	if e.at > k.now {
		k.now = e.at
	}
	k.nProcessed++
	e.fn()
	return true
}

// Run executes events until the queue is empty. The clock ends at the
// latest instant any event was queued or reserved for, so a Resource's
// final release counts as elapsed time whether or not its dispatcher event
// ever had to be queued.
func (k *Kernel) Run() {
	for k.Step() {
	}
	if k.now < k.reservedUntil {
		k.now = k.reservedUntil
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain queued.
func (k *Kernel) RunUntil(deadline Time) {
	for len(k.events) > 0 && k.events[0].at <= deadline {
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// RunFor executes events for d picoseconds of simulated time from now.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now.Add(d)) }

// RunWhile steps the kernel while cond() is true and events remain. It is
// the building block for "run until this operation completes" call sites.
func (k *Kernel) RunWhile(cond func() bool) {
	for cond() && k.Step() {
	}
}
