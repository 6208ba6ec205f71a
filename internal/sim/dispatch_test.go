package sim

import (
	"fmt"
	"testing"
)

// refResource is the always-scheduled dispatcher Resource used to have:
// every grant queues a dispatcher event at its release instant, and the
// event returns at once when nothing waits. TestResourceDispatchMatchesReference
// holds the armed-on-demand Resource to it.
type refResource struct {
	k         *Kernel
	busyUntil Time
	queue     []grant
}

func (r *refResource) Acquire(hold Duration, fn func(start Time)) {
	r.acquire(grant{hold: hold, fn: fn})
}

func (r *refResource) Hold(hold Duration, fn func()) {
	r.acquire(grant{hold: hold, after: fn})
}

func (r *refResource) acquire(g grant) {
	if g.hold < 0 {
		g.hold = 0
	}
	if r.busyUntil <= r.k.Now() && len(r.queue) == 0 {
		r.start(g)
		return
	}
	r.queue = append(r.queue, g)
}

func (r *refResource) start(g grant) {
	at := r.k.Now()
	r.busyUntil = at.Add(g.hold)
	if g.fn != nil {
		g.fn(at)
	}
	if g.after != nil {
		r.k.ScheduleAt(r.busyUntil, g.after)
	}
	r.k.ScheduleAt(r.busyUntil, r.dispatch)
}

func (r *refResource) dispatch() {
	if r.busyUntil > r.k.Now() || len(r.queue) == 0 {
		return
	}
	g := r.queue[0]
	r.queue = r.queue[1:]
	r.start(g)
}

// acquirer is the surface both implementations share.
type acquirer interface {
	Acquire(hold Duration, fn func(start Time))
	Hold(hold Duration, fn func())
}

// dispatchScript drives two resources on one kernel with a seeded script
// and returns every callback as "id@time" in firing order, plus the clock
// after Run. Instants and holds sit on a 10 ns grid with zero holds common,
// so arrivals collide with each other and with releases; grant callbacks
// re-enter Acquire and Schedule zero-delay events. Randomness is drawn in
// firing order, so any divergence between implementations compounds.
func dispatchScript(seed uint64, mk func(*Kernel) acquirer) ([]string, Time, uint64) {
	k := NewKernel()
	rng := NewRand(seed)
	rs := []acquirer{mk(k), mk(k)}
	var log []string
	next := 0
	note := func(id int) { log = append(log, fmt.Sprintf("%d@%d", id, k.Now())) }
	grid := func(n int) Duration { return Duration(rng.Intn(n)) * 10 * Nanosecond }
	var act func(depth int)
	act = func(depth int) {
		next++
		id := next
		r := rs[rng.Intn(len(rs))]
		hold := grid(3)
		more := func() {
			if depth < 3 && rng.Intn(3) == 0 {
				act(depth + 1)
			}
		}
		switch rng.Intn(4) {
		case 0, 1:
			r.Acquire(hold, func(Time) { note(id); more() })
		case 2:
			r.Hold(hold, func() { note(id); more() })
		default:
			k.Schedule(grid(2), func() { note(id); more() })
		}
	}
	for i := 0; i < 60; i++ {
		k.Schedule(grid(12), func() { act(0) })
	}
	k.Run()
	return log, k.Now(), k.Processed()
}

// TestResourceDispatchMatchesReference: arming the dispatcher only when a
// grant waits must fire every callback in the same order at the same
// instant as the always-scheduled dispatcher, and leave Run's clock where
// the reference's last (possibly no-op) dispatcher left it.
func TestResourceDispatchMatchesReference(t *testing.T) {
	saved := 0
	for seed := uint64(1); seed <= 300; seed++ {
		want, wantNow, wantEv := dispatchScript(seed, func(k *Kernel) acquirer { return &refResource{k: k} })
		got, gotNow, gotEv := dispatchScript(seed, func(k *Kernel) acquirer { return NewResource(k, "r") })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: callback %d: got %v, reference %v", seed, i, got[i:], want[i:])
				}
			}
			t.Fatalf("seed %d: %d callbacks, reference %d", seed, len(got), len(want))
		}
		if gotNow != wantNow {
			t.Fatalf("seed %d: clock after Run %v, reference %v", seed, gotNow, wantNow)
		}
		if gotEv > wantEv {
			t.Fatalf("seed %d: %d events, more than the reference's %d", seed, gotEv, wantEv)
		}
		saved += int(wantEv - gotEv)
	}
	if saved == 0 {
		t.Fatal("no dispatcher event was saved")
	}
}

// TestResourceNegativeHoldCounted: a negative hold is the same causality bug
// as a negative Schedule delay. It is clamped to zero, so the grant still
// runs, and counted in NegativeDelays for core.CheckHealth.
func TestResourceNegativeHoldCounted(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r")
	var at []Time
	r.Acquire(-5*Nanosecond, func(s Time) { at = append(at, s) })
	r.Hold(-1, func() { at = append(at, k.Now()) })
	r.Acquire(10*Nanosecond, func(s Time) { at = append(at, s) })
	k.Run()
	if k.NegativeDelays() != 2 {
		t.Fatalf("NegativeDelays = %d after two negative holds, want 2", k.NegativeDelays())
	}
	if len(at) != 3 || at[0] != 0 || at[1] != 0 || at[2] != 0 {
		t.Fatalf("grants at %v, want all three at 0 (clamped holds)", at)
	}
	if r.Busy != 10*Nanosecond {
		t.Fatalf("Busy = %v, want 10ns (negative holds count zero)", r.Busy)
	}
}
