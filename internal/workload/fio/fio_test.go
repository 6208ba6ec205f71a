package fio

import (
	"testing"

	"nvdimmc/internal/pmem"
	"nvdimmc/internal/sim"
)

func newBaseline(t *testing.T) *pmem.Device {
	t.Helper()
	return pmem.New()
}

func TestRunRandRead(t *testing.T) {
	d := newBaseline(t)
	res, err := Run(d, Job{
		Pattern: RandRead, BlockSize: 4096, NumJobs: 1,
		FileSize: 1 << 30, OpsPerThread: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Meter.Ops() != 500 {
		t.Fatalf("ops = %d, want 500", res.Meter.Ops())
	}
	if res.BandwidthMBps() <= 0 || res.KIOPS() <= 0 {
		t.Fatalf("degenerate result: %v", res)
	}
	if res.Latency.Mean() <= 0 {
		t.Fatal("no latency recorded")
	}
}

func TestBaselineSingleThread4KAnchor(t *testing.T) {
	// Fig. 8 anchor: baseline 4 KB randread @1 thread ~ 2606 MB/s.
	d := pmem.New() // full 128 GB footprint
	res, err := Run(d, Job{
		Pattern: RandRead, BlockSize: 4096, NumJobs: 1,
		FileSize: 120 << 30, OpsPerThread: 2000, WarmupOps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.BandwidthMBps()
	if got < 2000 || got > 3300 {
		t.Fatalf("baseline 4K randread = %.0f MB/s, want ~2606 (+/-25%%)", got)
	}
}

func TestThreadScalingSaturates(t *testing.T) {
	// Fig. 9 shape: throughput grows with threads then saturates at the
	// channel bound (paper: 8694 MB/s at 8 threads).
	var bw []float64
	for _, jobs := range []int{1, 4, 8, 16} {
		d := newBaseline(t)
		res, err := Run(d, Job{
			Pattern: RandRead, BlockSize: 4096, NumJobs: jobs,
			FileSize: 1 << 30, OpsPerThread: 400, WarmupOps: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		bw = append(bw, res.BandwidthMBps())
	}
	if bw[1] < bw[0]*1.5 {
		t.Fatalf("no scaling 1->4 threads: %v", bw)
	}
	if bw[3] > bw[2]*1.35 {
		t.Fatalf("no saturation by 8 threads: %v", bw)
	}
	// Saturation in the 7-11 GB/s neighborhood at DDR4-1600.
	if bw[2] < 6000 || bw[2] > 12000 {
		t.Fatalf("8-thread plateau = %.0f MB/s, want 6-12 GB/s", bw[2])
	}
}

func TestSequentialVsRandomOffsets(t *testing.T) {
	d := newBaseline(t)
	res, err := Run(d, Job{
		Pattern: SeqRead, BlockSize: 4096, NumJobs: 1,
		FileSize: 1 << 20, OpsPerThread: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Meter.Ops() != 256 {
		t.Fatalf("ops = %d", res.Meter.Ops())
	}
}

func TestJobValidation(t *testing.T) {
	d := newBaseline(t)
	if _, err := Run(d, Job{Pattern: RandRead, BlockSize: 0}); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := Run(d, Job{Pattern: RandRead, BlockSize: 4096, FileSize: pmem.Bytes + 4096}); err == nil {
		t.Fatal("file larger than device accepted")
	}
	if _, err := Run(d, Job{Pattern: RandRead, BlockSize: 1 << 21, FileSize: 1 << 20}); err == nil {
		t.Fatal("block larger than file accepted")
	}
}

func TestWritesSlowerThanReads(t *testing.T) {
	d := newBaseline(t)
	r, err := Run(d, Job{Pattern: RandRead, BlockSize: 4096, FileSize: 1 << 28, OpsPerThread: 300})
	if err != nil {
		t.Fatal(err)
	}
	d2 := newBaseline(t)
	w, err := Run(d2, Job{Pattern: RandWrite, BlockSize: 4096, FileSize: 1 << 28, OpsPerThread: 300})
	if err != nil {
		t.Fatal(err)
	}
	if w.BandwidthMBps() >= r.BandwidthMBps() {
		t.Fatalf("writes (%.0f) not slower than reads (%.0f)", w.BandwidthMBps(), r.BandwidthMBps())
	}
}

func TestWarmupExcluded(t *testing.T) {
	d := newBaseline(t)
	res, err := Run(d, Job{
		Pattern: RandRead, BlockSize: 4096, NumJobs: 2,
		FileSize: 1 << 28, OpsPerThread: 100, WarmupOps: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Meter.Ops() > 200 || res.Meter.Ops() < 150 {
		t.Fatalf("measured ops = %d, want ~200 (warmup excluded)", res.Meter.Ops())
	}
	_ = sim.Duration(0)
}

// TestRandRWMixRatioSweep pins the rwmixread knob across its range: the
// device-observed write share must track 100-ReadPct within tolerance.
func TestRandRWMixRatioSweep(t *testing.T) {
	for _, readPct := range []int{10, 50, 90} {
		d := newBaseline(t)
		_, err := Run(d, Job{
			Pattern: RandRW, BlockSize: 4096, NumJobs: 1, ReadPct: readPct,
			FileSize: 1 << 28, OpsPerThread: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		reads, writes, _, _ := d.IMC.Stats()
		want := float64(100-readPct) / 100
		got := float64(writes) / float64(reads+writes)
		if got < want-0.06 || got > want+0.06 {
			t.Fatalf("readpct=%d: write share = %.3f, want %.2f +/- 0.06", readPct, got, want)
		}
	}
}

// TestRunDeterministicUnderSeed: the generator side of fio is a pure
// function of Job.Seed — two identical runs must report identical measured
// results, and a different seed must visit different offsets.
func TestRunDeterministicUnderSeed(t *testing.T) {
	run := func(seed uint64) Result {
		d := newBaseline(t)
		res, err := Run(d, Job{
			Pattern: RandRW, BlockSize: 4096, NumJobs: 2, Seed: seed,
			FileSize: 1 << 28, OpsPerThread: 400, WarmupOps: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(99), run(99)
	if a.KIOPS() != b.KIOPS() || a.BandwidthMBps() != b.BandwidthMBps() {
		t.Fatalf("same seed diverged: %.3f/%.3f KIOPS", a.KIOPS(), b.KIOPS())
	}
	for _, p := range []float64{50, 99, 99.9} {
		if a.Latency.Percentile(p) != b.Latency.Percentile(p) {
			t.Fatalf("same seed: p%v %v vs %v", p, a.Latency.Percentile(p), b.Latency.Percentile(p))
		}
	}
	c := run(100)
	if a.Latency.Mean() == c.Latency.Mean() && a.Latency.Percentile(99) == c.Latency.Percentile(99) {
		t.Fatal("different seeds produced identical latency profiles (seed unused?)")
	}
}

func TestRandRWMix(t *testing.T) {
	d := newBaseline(t)
	res, err := Run(d, Job{
		Pattern: RandRW, BlockSize: 4096, NumJobs: 1, ReadPct: 70,
		FileSize: 1 << 28, OpsPerThread: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Meter.Ops() != 600 {
		t.Fatalf("ops = %d", res.Meter.Ops())
	}
	// The device saw both reads and writes in roughly the requested split.
	reads, writes, _, _ := d.IMC.Stats()
	total := float64(reads + writes)
	if ratio := float64(writes) / total; ratio < 0.15 || ratio > 0.45 {
		t.Fatalf("write share = %.2f, want ~0.30", ratio)
	}
}
