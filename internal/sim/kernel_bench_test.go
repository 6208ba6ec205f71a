package sim

import "testing"

// nop is package-level so benchmark Schedule calls pass a pre-existing func
// value and measure only the kernel, not closure construction at the call
// site.
var nop = func() {}

// BenchmarkKernelScheduleStep is the kernel fast-path micro-benchmark: one
// Schedule plus one Step per iteration over a standing event population,
// which is the steady-state shape of every device model's timing loop. The
// acceptance bar is 0 allocs/op (see TestKernelSteadyStateZeroAlloc for the
// hard assertion).
func BenchmarkKernelScheduleStep(b *testing.B) {
	k := NewKernel()
	// Standing population so push/pop exercise real sift depth.
	for i := 0; i < 64; i++ {
		k.Schedule(Duration(i)*Nanosecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(100*Nanosecond, nop)
		k.Step()
	}
}

// BenchmarkKernelChurn measures a burstier shape: fill 1024 events, drain
// them, repeat — the pattern of a pipeline filling against a slow resource.
func BenchmarkKernelChurn(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1024; j++ {
			k.Schedule(Duration(j%97)*Nanosecond, nop)
		}
		k.Run()
	}
}

// grantNop is package-level for the same reason as nop.
var grantNop = func(Time) {}

// BenchmarkResourceAcquire is the resource fast path every channel, driver
// lock and CP mailbox grant takes: uncontended (granted at once) and queued
// (three waiters behind the holder). The acceptance bar is 0 allocs/op (see
// TestResourceAcquireZeroAlloc).
func BenchmarkResourceAcquire(b *testing.B) {
	b.Run("uncontended", func(b *testing.B) {
		k := NewKernel()
		r := NewResource(k, "r")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Acquire(10*Nanosecond, grantNop)
			k.Run()
		}
	})
	b.Run("queued", func(b *testing.B) {
		k := NewKernel()
		r := NewResource(k, "r")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 4; j++ {
				r.Acquire(10*Nanosecond, grantNop)
			}
			k.Run()
		}
	})
}
