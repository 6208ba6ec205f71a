package pool

import "nvdimmc/internal/metrics"

// breakerState is the classic three-state circuit-breaker FSM, clocked
// entirely off epoch boundaries: observations are folded in at collect()
// (canonical order) and transitions happen in tick() at the boundary, so the
// breaker is byte-identical at any worker count.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "?"
}

// breaker guards one channel's dispatch path. Closed: dispatch freely while
// counting failures over a sliding window of BreakerWindow epochs; trip to
// Open when the window holds >= BreakerMinSamples observations and the
// failure fraction reaches BreakerErrRate. Open: dispatch nothing for
// BreakerCooldown epochs (doubled on each consecutive reopen, capped at 8x),
// then go HalfOpen. HalfOpen: allow breakerProbes dispatches per epoch; any
// failure reopens, BreakerCloseStreak consecutive successes close.
//
// A "failure" is a fragment completing with an error, or — when
// BreakerLatency > 0 — completing slower than that bound.
type breaker struct {
	cfg *Config
	ctr *metrics.Counters

	state    breakerState
	winTotal int // observations in the current closed window
	winFail  int
	winLeft  int // epochs left in the current closed window
	cooldown int // epochs left before Open goes HalfOpen
	coolBase int // current (escalated) cooldown length
	streak   int // consecutive half-open successes
}

// breakerProbes is how many fragments a half-open breaker dispatches per
// epoch.
const breakerProbes = 2

func newBreaker(cfg *Config, ctr *metrics.Counters) *breaker {
	return &breaker{cfg: cfg, ctr: ctr, winLeft: cfg.BreakerWindow, coolBase: cfg.BreakerCooldown}
}

// budget returns how many fragments fill() may dispatch this epoch. Closed
// is unbounded (the in-flight window is the real cap); Open admits nothing;
// HalfOpen admits the probe allowance.
func (b *breaker) budget() int {
	switch b.state {
	case breakerOpen:
		return 0
	case breakerHalfOpen:
		return breakerProbes
	}
	return int(^uint(0) >> 1)
}

// observe folds one completed fragment into the FSM. Called at collect() in
// canonical order. Completions that land while Open are stragglers
// dispatched before the trip; they carry no new signal and are ignored.
func (b *breaker) observe(failed bool) {
	switch b.state {
	case breakerClosed:
		b.winTotal++
		if failed {
			b.winFail++
		}
	case breakerHalfOpen:
		if failed {
			b.state = breakerOpen
			if b.coolBase < 8*b.cfg.BreakerCooldown {
				b.coolBase *= 2
			}
			b.cooldown = b.coolBase
			b.streak = 0
			b.ctr.Inc("breaker-reopen")
			return
		}
		b.streak++
		if b.streak >= b.cfg.BreakerCloseStreak {
			b.state = breakerClosed
			b.winTotal, b.winFail, b.winLeft = 0, 0, b.cfg.BreakerWindow
			b.coolBase = b.cfg.BreakerCooldown
			b.ctr.Inc("breaker-close")
		}
	}
}

// quietHorizon bounds quiet-epoch batching for this breaker: an Open
// breaker's cooldown expiry (the half-open transition, which restores
// dispatch budget) must land at or before the batch's final replayed tick,
// never silently inside the span. Closed and half-open breakers impose no
// bound, because StepQuiet replays their ticks exactly (ticks). With no
// observations folding in, a half-open breaker cannot change state, but a
// closed one still can: a window that already holds a tripping sample set
// (tripReady) trips at its window-end tick, inside the span if that is
// where the tick falls.
func (b *breaker) quietHorizon() (int, bool) {
	if b.state == breakerOpen {
		return b.cooldown, true
	}
	return 0, false
}

// tripReady reports whether a closed breaker's current window already
// holds enough failures to trip at its window-end tick, whether or not
// another observation arrives.
func (b *breaker) tripReady() bool {
	return b.state == breakerClosed && b.winTotal >= b.cfg.BreakerMinSamples &&
		float64(b.winFail) >= b.cfg.BreakerErrRate*float64(b.winTotal)
}

// tick advances the FSM one epoch at the boundary (after observe folding).
func (b *breaker) tick() {
	switch b.state {
	case breakerClosed:
		b.winLeft--
		if b.winLeft > 0 {
			return
		}
		if b.tripReady() {
			b.state = breakerOpen
			b.cooldown = b.coolBase
			b.ctr.Inc("breaker-trip")
		}
		b.winTotal, b.winFail, b.winLeft = 0, 0, b.cfg.BreakerWindow
	case breakerOpen:
		b.cooldown--
		if b.cooldown <= 0 {
			b.state = breakerHalfOpen
			b.streak = 0
			b.ctr.Inc("breaker-halfopen")
		}
	}
}

// ticks advances the FSM k epochs with no observation folding in, exactly
// as k tick calls, in O(1) transitions. The only ticks that act are the
// closed window end and the open cooldown expiry, so it jumps to the next
// one and takes a real tick there: a tripReady window trips and counts as
// it always does. A window that closes without tripping restarts empty,
// and an empty window that cannot trip closes unchanged every
// BreakerWindow ticks, so the rest of the span is only its remainder.
// Half-open ticks are no-ops.
func (b *breaker) ticks(k int) {
	for k > 0 {
		left := &b.winLeft
		switch b.state {
		case breakerOpen:
			left = &b.cooldown
		case breakerHalfOpen:
			return
		}
		n := max(*left, 1) // ticks up to and including the acting one
		if k < n {
			*left -= k
			return
		}
		*left -= n - 1
		k -= n
		b.tick()
		if b.state == breakerClosed && !b.tripReady() {
			b.winLeft -= k % max(b.cfg.BreakerWindow, 1)
			return
		}
	}
}
