package main

import (
	"bytes"
	"time"

	"nvdimmc/internal/pool"
	"nvdimmc/internal/replay"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

const (
	// microOps bounds how many of a workload's requests a micro-timing uses.
	microOps = 200_000
	// microMin is how long each loop repeats before its time is read.
	microMin = 100 * time.Millisecond
	// memberOps bounds the member-level hit path loop.
	memberOps = 2000
)

// nsPer repeats pass, which returns how many units it processed, until
// microMin has elapsed, and returns the median over the passes of
// nanoseconds per unit, so that a burst of host noise moves it little.
func nsPer(pass func() int) float64 {
	var per []float64
	for start := time.Now(); time.Since(start) < microMin || len(per) < 3; {
		t := time.Now()
		n := pass()
		per = append(per, ratio(float64(time.Since(t).Nanoseconds()), float64(n)))
	}
	return median(per)
}

// microTimings times public calls of single layers on a workload's own
// inputs (the binary trace): the DES kernel scheduling every arrival, the
// pool decoder splitting every request, the trace decoder, and one member's
// cache-hit path. local maps a workload address to p's address space and
// reports whether p serves it. Together the loops take well under 2 s.
func microTimings(m map[string]float64, trace []byte, p *pool.Pool, local func(int64) (int64, bool)) error {
	rd, err := replay.NewReader(bytes.NewReader(trace))
	if err != nil {
		return err
	}
	reqs, err := replay.ReadAll(rd)
	if err != nil {
		return err
	}
	if len(reqs) > microOps {
		reqs = reqs[:microOps]
	}
	m["micro.trace_bytes_per_op"] = ratio(float64(len(trace)), float64(rd.Records()))

	// The trace decoded cleanly above, so here the first error is io.EOF.
	m["micro.trace_decode_ns_per_op"] = nsPer(func() int {
		rd, _ := replay.NewReader(bytes.NewReader(trace))
		n := 0
		for {
			if _, err := rd.Next(); err != nil {
				return n
			}
			n++
		}
	})

	m["micro.kernel_ns_per_event"] = nsPer(func() int {
		k := sim.NewKernel()
		fired := 0
		fn := func() { fired++ }
		for _, q := range reqs {
			k.ScheduleAt(sim.Time(q.Arrival), fn)
		}
		k.Run()
		return fired
	})

	var buf []pool.Extent
	m["micro.decoder_ns_per_frag"] = nsPer(func() int {
		frags := 0
		for _, q := range reqs {
			off, _ := local(q.Off)
			buf = p.Dec.FragmentsInto(buf[:0], off, q.Len)
			frags += len(buf)
		}
		return frags
	})

	m["micro.member_hit_us_per_op"] = memberHit(p, reqs, local)
	return nil
}

// memberHit times member 0's path for its requests whose page is resident
// in the DRAM cache: the host-side dispatch, the driver fault (a hit), and
// the channel transfer, each op run to completion on the member's kernel.
func memberHit(p *pool.Pool, reqs []openloop.Request, local func(int64) (int64, bool)) float64 {
	sys := p.Member(0)
	tgt := sys.NewFioTarget()
	tgt.SetWalkFootprint(p.Cfg.WalkFootprint)
	tgt.Prepare(tgt.Capacity())
	ops := 0
	var elapsed time.Duration
	for _, q := range reqs {
		off, ok := local(q.Off)
		if !ok {
			continue
		}
		member, moff := p.Dec.Lookup(off)
		if member != 0 || sys.Driver.SlotOf(moff/pool.PageSize) < 0 {
			continue
		}
		done := false
		start := time.Now()
		tgt.Do(moff, q.Len, q.Write, func() { done = true })
		sys.K.RunWhile(func() bool { return !done })
		elapsed += time.Since(start)
		if ops++; ops == memberOps {
			break
		}
	}
	return ratio(float64(elapsed.Nanoseconds())/1e3, float64(ops))
}
