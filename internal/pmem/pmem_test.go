package pmem

import (
	"bytes"
	"testing"

	"nvdimmc/internal/sim"
)

func TestFullSizeSparse(t *testing.T) {
	// The Table I baseline is 128 GB; sparse storage must make it cheap.
	d := New()
	if d.Capacity() != 128<<30 {
		t.Fatalf("capacity = %d", d.Capacity())
	}
	if d.DRAM.TouchedPages() != 0 {
		t.Fatal("untouched device allocated pages")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	d := New()
	want := []byte("pmem0 emulated nvdimm")
	done := false
	d.Store(123456, want, func() {
		got := make([]byte, len(want))
		d.Load(123456, got, func() {
			if !bytes.Equal(got, want) {
				t.Error("round trip mismatch")
			}
			done = true
		})
	})
	d.K.RunFor(sim.Millisecond)
	if !done {
		t.Fatal("ops did not complete")
	}
}

func TestDoChunksCompleteOnce(t *testing.T) {
	d := New()
	calls := 0
	d.Prepare(1 << 30)
	d.Do(0, 65536, false, func() { calls++ })
	d.K.RunFor(10 * sim.Millisecond)
	if calls != 1 {
		t.Fatalf("done called %d times", calls)
	}
}

func TestDoOutOfRangePanics(t *testing.T) {
	d := New()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range op accepted")
		}
	}()
	d.Do(Bytes-100, 4096, false, func() {})
}

func TestRefreshRuns(t *testing.T) {
	d := New()
	d.K.RunFor(sim.Millisecond)
	if d.IMC.Refreshes() < 100 {
		t.Fatalf("refreshes = %d in 1 ms, want ~128", d.IMC.Refreshes())
	}
	if d.DRAM.ViolationCount() != 0 {
		t.Fatal("protocol violations on baseline")
	}
}

func TestThreadCPUUsesFootprint(t *testing.T) {
	d := New()
	d.Prepare(1 << 30)
	small := d.ThreadCPU(4096, false)
	d.Prepare(120 << 30)
	big := d.ThreadCPU(4096, false)
	if big <= small {
		t.Fatal("footprint not reflected in per-op cost")
	}
}

// TestDoZeroAllocs checks that a warm Do allocates nothing: its chunks run
// on a recycled op record with bound continuations, reading into the
// device's sink and writing from its zero source.
func TestDoZeroAllocs(t *testing.T) {
	d := New()
	done := false
	markDone := func() { done = true }
	pending := func() bool { return !done }
	op := func(write bool) {
		done = false
		d.Do(8192, 4096, write, markDone)
		d.K.RunWhile(pending)
	}
	op(false)
	op(true)
	for _, write := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(100, func() { op(write) }); allocs != 0 {
			t.Errorf("write=%v: %v allocations per warm Do, want 0", write, allocs)
		}
	}
}
