// Package fio is the flexible-I/O-tester stand-in (§VI, Table II): a
// closed-loop workload generator with fio's knobs — pattern, block size,
// thread count, footprint — over any Target. The libpmem ioengine the paper
// uses is synchronous, so each thread is one outstanding op (iodepth beyond
// 1 has no effect with that engine; fio itself warns so).
package fio

import (
	"fmt"

	"nvdimmc/internal/metrics"
	"nvdimmc/internal/sim"
)

// Target is a device under test.
type Target interface {
	Name() string
	Kernel() *sim.Kernel
	Capacity() int64
	// Prepare tells the target the workload footprint before a run.
	Prepare(footprint int64)
	// ThreadCPU is the host CPU cost of one op on its issuing thread.
	ThreadCPU(n int, write bool) sim.Duration
	// Do performs the device part of one op.
	Do(off int64, n int, write bool, done func())
}

// Pattern is the fio access pattern.
type Pattern int

// Supported patterns.
const (
	RandRead Pattern = iota
	RandWrite
	SeqRead
	SeqWrite
	// RandRW mixes random reads and writes; Job.ReadPct sets the split
	// (fio's rwmixread, default 50).
	RandRW
)

func (p Pattern) String() string {
	switch p {
	case RandRead:
		return "randread"
	case RandWrite:
		return "randwrite"
	case SeqRead:
		return "read"
	case SeqWrite:
		return "write"
	case RandRW:
		return "randrw"
	default:
		return "pattern?"
	}
}

// IsWrite reports whether the pattern issues writes (RandRW decides per op).
func (p Pattern) IsWrite() bool { return p == RandWrite || p == SeqWrite }

// IsRandom reports whether offsets are random.
func (p Pattern) IsRandom() bool { return p == RandRead || p == RandWrite || p == RandRW }

// Job is one fio invocation.
type Job struct {
	Pattern   Pattern
	BlockSize int
	// NumJobs is the thread count (iodepth is 1 per thread: libpmem engine).
	NumJobs int
	// FileSize is the per-run footprint; offsets stay below it.
	FileSize int64
	// OpsPerThread bounds the run length.
	OpsPerThread int
	// WarmupOps per thread are excluded from measurement.
	WarmupOps int
	// ReadPct is the read share for RandRW (fio rwmixread; default 50).
	ReadPct int
	// Align forces offset alignment (defaults to BlockSize).
	Align int64
	Seed  uint64
}

// Validate fills defaults and checks the job.
func (j *Job) Validate(t Target) error {
	if j.BlockSize <= 0 {
		return fmt.Errorf("fio: block size %d", j.BlockSize)
	}
	if j.NumJobs <= 0 {
		j.NumJobs = 1
	}
	if j.OpsPerThread <= 0 {
		j.OpsPerThread = 1000
	}
	if j.FileSize <= 0 {
		j.FileSize = t.Capacity()
	}
	if j.FileSize > t.Capacity() {
		return fmt.Errorf("fio: file size %d exceeds device %d", j.FileSize, t.Capacity())
	}
	if j.Align <= 0 {
		j.Align = int64(j.BlockSize)
	}
	if int64(j.BlockSize) > j.FileSize {
		return fmt.Errorf("fio: block size %d exceeds file size %d", j.BlockSize, j.FileSize)
	}
	if j.Seed == 0 {
		j.Seed = 0xF10
	}
	if j.ReadPct <= 0 || j.ReadPct > 100 {
		j.ReadPct = 50
	}
	return nil
}

// Result is a completed run's measurements.
type Result struct {
	Job     Job
	Target  string
	Meter   *metrics.Meter
	Latency *metrics.Histogram
	// WallSim is the simulated duration of the measured phase.
	WallSim sim.Duration
}

// KIOPS of the measured phase.
func (r Result) KIOPS() float64 { return r.Meter.KIOPS() }

// BandwidthMBps of the measured phase.
func (r Result) BandwidthMBps() float64 { return r.Meter.BandwidthMBps() }

func (r Result) String() string {
	return fmt.Sprintf("%s %s bs=%d jobs=%d: %.0f KIOPS %.0f MB/s lat(mean=%v p99=%v)",
		r.Target, r.Job.Pattern, r.Job.BlockSize, r.Job.NumJobs,
		r.KIOPS(), r.BandwidthMBps(), r.Latency.Mean(), r.Latency.Percentile(99))
}

// Run executes the job to completion on the target's kernel.
func Run(t Target, job Job) (Result, error) {
	if err := job.Validate(t); err != nil {
		return Result{}, err
	}
	t.Prepare(job.FileSize)
	k := t.Kernel()

	meter := metrics.NewMeter(k.Now())
	hist := metrics.NewHistogram()
	var measStart sim.Time
	measuring := false
	remaining := job.NumJobs

	blocks := job.FileSize / job.Align
	if blocks < 1 {
		blocks = 1
	}

	for th := 0; th < job.NumJobs; th++ {
		rng := sim.NewRand(job.Seed + uint64(th)*0x9E37 + 1)
		seq := int64(th) * (blocks / int64(job.NumJobs)) // thread's sequential cursor
		opIdx := 0
		var loop func()
		loop = func() {
			if opIdx >= job.OpsPerThread+job.WarmupOps {
				remaining--
				return
			}
			opIdx++
			if !measuring && opIdx > job.WarmupOps {
				// First measured op across all threads starts the clock.
				measuring = true
				measStart = k.Now()
				*meter = *metrics.NewMeter(measStart)
			}
			var off int64
			if job.Pattern.IsRandom() {
				off = rng.Int63n(blocks) * job.Align
			} else {
				off = (seq % blocks) * job.Align
				seq++
			}
			if off+int64(job.BlockSize) > job.FileSize {
				off = job.FileSize - int64(job.BlockSize)
				if off < 0 {
					off = 0
				}
			}
			write := job.Pattern.IsWrite()
			if job.Pattern == RandRW {
				write = rng.Intn(100) >= job.ReadPct
			}
			issueAt := k.Now()
			measured := opIdx > job.WarmupOps
			// Host CPU phase on this thread, then the device phase. A few
			// percent of deterministic-random jitter models real CPU-time
			// variance; without it, fixed op cycles can phase-lock with the
			// refresh cadence and hide (or exaggerate) refresh contention.
			cpu := t.ThreadCPU(job.BlockSize, write)
			cpu += sim.Duration(rng.Int63n(int64(cpu)/2+1)) - sim.Duration(int64(cpu)/4)
			k.Schedule(cpu, func() {
				t.Do(off, job.BlockSize, write, func() {
					if measured {
						hist.Record(k.Now().Sub(issueAt))
						meter.Record(k.Now(), job.BlockSize)
					}
					loop()
				})
			})
		}
		loop()
	}

	// Drive the kernel until every thread finished. The refresh engine
	// keeps the queue non-empty, so completion is the only exit.
	guard := 0
	for remaining > 0 {
		if !k.Step() {
			return Result{}, fmt.Errorf("fio: kernel drained with %d threads outstanding", remaining)
		}
		guard++
		if guard > 1<<32 {
			return Result{}, fmt.Errorf("fio: runaway simulation")
		}
	}
	meter.Finish(k.Now())
	return Result{
		Job:     job,
		Target:  t.Name(),
		Meter:   meter,
		Latency: hist,
		WallSim: k.Now().Sub(measStart),
	}, nil
}

// Prefill touches every page of [0, footprint) with block-sized sequential
// writes so a subsequent run hits the device's cache (the paper's
// NVDC-Cached condition) or populates the file. It runs to completion.
func Prefill(t Target, footprint int64, blockSize int) error {
	job := Job{
		Pattern:      SeqWrite,
		BlockSize:    blockSize,
		NumJobs:      1,
		FileSize:     footprint,
		OpsPerThread: int(footprint / int64(blockSize)),
	}
	_, err := Run(t, job)
	return err
}
