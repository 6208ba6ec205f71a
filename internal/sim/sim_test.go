package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30*Nanosecond, func() { got = append(got, 3) })
	k.Schedule(10*Nanosecond, func() { got = append(got, 1) })
	k.Schedule(20*Nanosecond, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != Time(30*Nanosecond) {
		t.Fatalf("clock = %v, want 30ns", k.Now())
	}
}

func TestKernelSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(5*Nanosecond, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 50 {
			k.Schedule(Nanosecond, step)
		}
	}
	k.Schedule(0, step)
	k.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if k.Now() != Time(49*Nanosecond) {
		t.Fatalf("clock = %v, want 49ns", k.Now())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(10*Nanosecond, func() { fired++ })
	k.Schedule(20*Nanosecond, func() { fired++ })
	k.RunUntil(Time(15 * Nanosecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != Time(15*Nanosecond) {
		t.Fatalf("clock = %v, want 15ns", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*Nanosecond, func() {
		k.Schedule(-5*Nanosecond, func() {
			if k.Now() != Time(10*Nanosecond) {
				t.Errorf("negative delay fired at %v, want 10ns", k.Now())
			}
		})
	})
	k.Run()
	if n := k.NegativeDelays(); n != 1 {
		t.Fatalf("NegativeDelays = %d, want 1", n)
	}
}

func TestKernelNegativeDelaysZeroOnCleanRun(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 100; i++ {
		k.Schedule(Duration(i)*Nanosecond, func() {})
	}
	k.Run()
	if n := k.NegativeDelays(); n != 0 {
		t.Fatalf("NegativeDelays = %d on a clean run, want 0", n)
	}
	// ScheduleAt clamping to now is the "asap" idiom, not a causality bug.
	k.ScheduleAt(Time(0), func() {})
	k.Run()
	if n := k.NegativeDelays(); n != 0 {
		t.Fatalf("past ScheduleAt counted as negative delay")
	}
}

// TestKernelSteadyStateZeroAlloc is the hard form of the kernel fast-path
// requirement: once the heap slice has capacity, Schedule+Step must not
// allocate at all.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel()
	// Warm the heap slice past any capacity we will use.
	for i := 0; i < 1024; i++ {
		k.Schedule(Duration(i)*Nanosecond, nop)
	}
	k.Run()
	for i := 0; i < 64; i++ {
		k.Schedule(Duration(i)*Nanosecond, nop)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(100*Nanosecond, nop)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+Step = %v allocs/op, want 0", allocs)
	}
}

// Property: for any multiset of delays, events fire in nondecreasing time
// order with FIFO tie-breaking — the hand-rolled value heap must match what
// container/heap guaranteed.
func TestKernelHeapOrderProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		k := NewKernel()
		type fired struct {
			at  Time
			seq int
		}
		var got []fired
		for i, d := range delaysRaw {
			i := i
			at := k.Now().Add(Duration(d) * Nanosecond)
			k.Schedule(Duration(d)*Nanosecond, func() {
				got = append(got, fired{at: at, seq: i})
			})
			_ = at
		}
		k.Run()
		if len(got) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelScheduleAtPast(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*Nanosecond, func() {
		k.ScheduleAt(Time(2*Nanosecond), func() {
			if k.Now() != Time(10*Nanosecond) {
				t.Errorf("past ScheduleAt fired at %v, want clamped to 10ns", k.Now())
			}
		})
	})
	k.Run()
}

func TestKernelRunWhile(t *testing.T) {
	k := NewKernel()
	done := false
	k.Schedule(100*Nanosecond, func() { done = true })
	k.Schedule(200*Nanosecond, func() { t.Error("ran past condition") })
	k.RunWhile(func() bool { return !done })
	if !done {
		t.Fatal("RunWhile ended before condition met")
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (later event must stay queued)", k.Pending())
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{1250, "1.250ns"},
		{7800 * Nanosecond, "7.800us"},
		{64 * Millisecond, "64.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus")
	var starts []Time
	for i := 0; i < 4; i++ {
		r.Acquire(10*Nanosecond, func(at Time) { starts = append(starts, at) })
	}
	k.Run()
	if len(starts) != 4 {
		t.Fatalf("grants = %d, want 4", len(starts))
	}
	for i, at := range starts {
		want := Time(Duration(i) * 10 * Nanosecond)
		if at != want {
			t.Errorf("grant %d at %v, want %v", i, at, want)
		}
	}
	if r.Busy != 40*Nanosecond {
		t.Errorf("busy = %v, want 40ns", r.Busy)
	}
}

func TestResourceIdleGapsAndFIFO(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus")
	var order []int
	r.Acquire(5*Nanosecond, func(Time) { order = append(order, 0) })
	k.Schedule(100*Nanosecond, func() {
		// Resource idle again; grant is immediate.
		r.Acquire(5*Nanosecond, func(at Time) {
			order = append(order, 1)
			if at != Time(100*Nanosecond) {
				t.Errorf("idle re-acquire at %v, want 100ns", at)
			}
		})
		r.Acquire(5*Nanosecond, func(at Time) {
			order = append(order, 2)
			if at != Time(105*Nanosecond) {
				t.Errorf("queued acquire at %v, want 105ns", at)
			}
		})
	})
	k.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceZeroHold(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r")
	n := 0
	for i := 0; i < 10; i++ {
		r.Acquire(0, func(Time) { n++ })
	}
	k.Run()
	if n != 10 {
		t.Fatalf("zero-hold grants = %d, want 10", n)
	}
}

// TestResourceAcquireZeroAlloc: with the queue's capacity warmed, neither an
// uncontended grant nor a queued one allocates, and neither does Hold.
func TestResourceAcquireZeroAlloc(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "r")
	for name, run := range map[string]func(){
		"uncontended": func() {
			r.Acquire(10*Nanosecond, grantNop)
			k.Run()
		},
		"queued": func() {
			for j := 0; j < 4; j++ {
				r.Acquire(10*Nanosecond, grantNop)
			}
			k.Run()
		},
		"hold": func() {
			for j := 0; j < 4; j++ {
				r.Hold(10*Nanosecond, nop)
			}
			k.Run()
		},
	} {
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: %v allocs/run, want 0", name, allocs)
		}
	}
}

// TestResourceHoldMatchesAcquireIdiom: Hold(h, fn) fires fn exactly where
// the idiom it replaces — Acquire with a grant callback that schedules fn
// at start+h — fires it: at the release, before the next waiter's grant.
func TestResourceHoldMatchesAcquireIdiom(t *testing.T) {
	run := func(hold bool) []string {
		k := NewKernel()
		r := NewResource(k, "r")
		var log []string
		note := func(s string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%v", s, k.Now())) }
		}
		for i, h := range []Duration{5, 0, 7, 3} {
			name := fmt.Sprintf("op%d", i)
			fn := note(name + "-released")
			if hold {
				r.Hold(h*Nanosecond, fn)
			} else {
				h := h * Nanosecond
				r.Acquire(h, func(start Time) { k.ScheduleAt(start.Add(h), fn) })
			}
			r.Acquire(Nanosecond, func(Time) { note(name + "-next-granted")() })
			k.Schedule(4*Nanosecond, note(name+"-tick"))
		}
		k.Run()
		return log
	}
	want, got := run(false), run(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Hold order\n got %v\nwant %v", got, want)
	}
}

// Property: for any set of hold times, a FIFO resource grants in order and
// grant[i+1].start >= grant[i].start + hold[i].
func TestResourceFIFOProperty(t *testing.T) {
	f := func(holdsRaw []uint16) bool {
		if len(holdsRaw) == 0 {
			return true
		}
		if len(holdsRaw) > 64 {
			holdsRaw = holdsRaw[:64]
		}
		k := NewKernel()
		r := NewResource(k, "r")
		starts := make([]Time, 0, len(holdsRaw))
		holds := make([]Duration, len(holdsRaw))
		for i, h := range holdsRaw {
			holds[i] = Duration(h) * Nanosecond
			r.Acquire(holds[i], func(at Time) { starts = append(starts, at) })
		}
		k.Run()
		if len(starts) != len(holds) {
			return false
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] != starts[i-1].Add(holds[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/1000 times", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck generator")
	}
}
