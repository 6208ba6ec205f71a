package sim

import "testing"

func TestDurationAndTimeString(t *testing.T) {
	for _, tc := range []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{4 * Millisecond, "4.000ms"},
		{5 * Second, "5.000s"},
	} {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("(%d).String() = %q, want %q", int64(tc.d), got, tc.want)
		}
	}
	at := Time(0).Add(7 * Microsecond)
	if got := at.Sub(Time(0).Add(2 * Microsecond)); got != 5*Microsecond {
		t.Errorf("Sub = %v, want 5us", got)
	}
	if got := at.String(); got != "7.000us" {
		t.Errorf("Time.String() = %q", got)
	}
}

func TestKernelPeekAndProcessed(t *testing.T) {
	k := NewKernel()
	if _, ok := k.NextAt(); ok {
		t.Fatal("NextAt on an empty queue reported an event")
	}
	fired := 0
	k.Schedule(3*Microsecond, func() { fired++ })
	k.Schedule(1*Microsecond, func() { fired++ })
	if at, ok := k.NextAt(); !ok || at != Time(0).Add(1*Microsecond) {
		t.Fatalf("NextAt = %v, %v; want 1us, true", at, ok)
	}
	// RunFor executes only events inside the window and advances the clock
	// to its end.
	k.RunFor(2 * Microsecond)
	if fired != 1 || k.Processed() != 1 {
		t.Fatalf("after RunFor(2us): fired=%d processed=%d", fired, k.Processed())
	}
	if k.Now() != Time(0).Add(2*Microsecond) {
		t.Fatalf("clock %v after RunFor(2us)", k.Now())
	}
	k.Run()
	if fired != 2 || k.Processed() != 2 {
		t.Fatalf("after Run: fired=%d processed=%d", fired, k.Processed())
	}
}

func TestSplitSeedDerivation(t *testing.T) {
	a := SplitSeed(7, "pool/load")
	if b := SplitSeed(7, "pool/load"); b != a {
		t.Fatalf("same root+label produced %d and %d", a, b)
	}
	if SplitSeed(7, "pool/load") == SplitSeed(7, "pool/gen") {
		t.Fatal("different labels collided")
	}
	if SplitSeed(7, "pool/load") == SplitSeed(8, "pool/load") {
		t.Fatal("different roots collided")
	}
	// A zero root must still yield usable per-component seeds.
	if SplitSeed(0, "x") == 0 && SplitSeed(0, "y") == 0 {
		t.Fatal("zero root degenerated")
	}
}

func TestRandPanicsOnNonPositiveBounds(t *testing.T) {
	r := NewRand(1)
	for name, fn := range map[string]func(){
		"Intn":   func() { r.Intn(0) },
		"Int63n": func() { r.Int63n(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with non-positive bound did not panic", name)
				}
			}()
			fn()
		}()
	}
	if n := r.Intn(10); n < 0 || n >= 10 {
		t.Fatalf("Intn(10) = %d", n)
	}
	if n := r.Int63n(10); n < 0 || n >= 10 {
		t.Fatalf("Int63n(10) = %d", n)
	}
}

func TestResourceAccountingSurface(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "chan0")
	if r.Name() != "chan0" {
		t.Fatalf("Name() = %q", r.Name())
	}
	var starts []Time
	r.Acquire(4*Microsecond, func(at Time) { starts = append(starts, at) })
	r.Acquire(2*Microsecond, func(at Time) { starts = append(starts, at) })
	if got := r.BusyUntil(); got != Time(0).Add(4*Microsecond) {
		t.Fatalf("BusyUntil = %v during the first grant", got)
	}
	k.Run()
	if len(starts) != 2 || starts[1] != Time(0).Add(4*Microsecond) {
		t.Fatalf("service starts %v, want FIFO handoff at 4us", starts)
	}
	if r.Grants != 2 || r.Busy != 6*Microsecond {
		t.Fatalf("after drain: grants=%d busy=%v", r.Grants, r.Busy)
	}

	// WarpGrants must land counters and the release instant exactly where
	// real uncontended acquires would have.
	warped := NewResource(k, "warp")
	warped.WarpGrants(0, Microsecond, 0) // no-op branch
	last := k.Now().Add(10 * Microsecond)
	warped.WarpGrants(3, 2*Microsecond, last)
	if warped.Grants != 3 || warped.Busy != 6*Microsecond {
		t.Fatalf("warped counters: grants=%d busy=%v", warped.Grants, warped.Busy)
	}
	if got := warped.BusyUntil(); got != last.Add(2*Microsecond) {
		t.Fatalf("warped BusyUntil = %v, want %v", got, last.Add(2*Microsecond))
	}
}
