package core

import (
	"fmt"
	"reflect"
	"testing"

	"nvdimmc/internal/sim"
	"nvdimmc/internal/trace"
)

// fullChain forces every refresh cycle of s through its full event chain:
// the twin the refresh collapse is compared against.
func (s *System) fullChain() { s.IMC.SetRefreshCollapse(nil) }

// collapseTwin is one side of the differential: a member and the instants
// its ops completed at, in completion order.
type collapseTwin struct {
	s    *System
	tgt  *FioTarget
	done []string
	ring *trace.Log
}

// newCollapseTwin returns a member with a small cache filled with dirty
// pages, half of them written back to NAND once, so the mix's misses evict
// with CP writebacks and refill with CP cachefills.
func newCollapseTwin(t *testing.T, full bool) *collapseTwin {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20
	s := mustSystem(t, cfg)
	if full {
		s.fullChain()
	}
	w := &collapseTwin{s: s, tgt: s.NewFioTarget()}
	fill := 3 * int64(s.Layout.NumSlots) / 2
	for p := int64(0); p < fill; p++ {
		done := false
		w.tgt.Do(p*PageSize, PageSize, true, func() { done = true })
		for !done && s.K.Step() {
		}
	}
	return w
}

// finish returns an op's completion callback: it logs the op's name and
// completion instant.
func (w *collapseTwin) finish(name string) func() {
	return func() { w.done = append(w.done, fmt.Sprintf("%s@%v", name, w.s.K.Now())) }
}

// state is everything the refresh chain touches, rendered for comparison:
// the counters of the driver, NVMC, detector, DRAM, channel, data bus and
// iMC, the media's, and the completion log.
func (w *collapseTwin) state() string {
	s := w.s
	ds := s.Driver.Stats()
	dr, dw := s.DRAM.Stats()
	hc, nc, hb, nb := s.Channel.Stats()
	ir, iw, irb, iwb := s.IMC.Stats()
	hw, gw, gr, gb := s.FTL.Stats()
	nr, np, ne, nx := s.NAND.Stats()
	next, on := s.IMC.NextRefreshAt()
	return fmt.Sprintf("now %v pending %d\ndriver %+v\nerrs %v\nnvmc %+v\nrefdet %+v\n"+
		"dram r=%d w=%d refs=%d viol=%d %v\nchannel %d %d %d %d coll=%d %v\n"+
		"bus busyUntil=%v busy=%v grants=%d\nimc r=%d w=%d %d %d refs=%d postponed=%d next=%v/%v wpq=%d\n"+
		"ftl %d %d %d %d nand %d %d %d %d\ndone %v",
		s.K.Now(), s.K.Pending(), ds, s.Driver.Counters(), s.NVMC.Stats(), s.Detector.Stats(),
		dr, dw, s.DRAM.RefreshCount(), s.DRAM.ViolationCount(), s.DRAM.Violations(),
		hc, nc, hb, nb, s.Channel.CollisionCount(), s.Channel.Collisions(),
		s.Channel.DataBus.BusyUntil(), s.Channel.DataBus.Busy, s.Channel.DataBus.Grants,
		ir, iw, irb, iwb, s.IMC.Refreshes(), s.IMC.PostponedRefreshes(), next, on, s.IMC.WPQDepth(),
		hw, gw, gr, gb, nr, np, ne, nx, w.done)
}

// TestRefreshCollapseDifferential drives a collapsing member and a twin
// forced through the full refresh chain with the same seeded mix: hits,
// writes, misses that leave CP commands in flight, host transfers that
// hold the bus across a REF's due instant (postponed REFs, some past the
// JEDEC postponement budget), self-refresh entry and exit, and a trace
// ring attached mid-run, each member advanced by FastForwardIdle to random
// targets. Every counter the refresh chain touches, the auditor's whole
// state and verdicts, the DRAM contents, the trace ring and every
// completion instant must agree, while the collapsing member runs fewer
// kernel events.
func TestRefreshCollapseDifferential(t *testing.T) {
	const rounds = 400
	for _, seed := range []uint64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			a, b := newCollapseTwin(t, false), newCollapseTwin(t, true)
			runCollapseMix(seed, rounds, a, b)
			if sa, sb := a.state(), b.state(); sa != sb {
				t.Fatalf("collapsing member diverged from the full chain:\n--- collapse\n%s\n--- full chain\n%s", sa, sb)
			}
			if !reflect.DeepEqual(a.s.Auditor, b.s.Auditor) {
				t.Fatalf("auditor state diverged:\ncollapse   %+v\nfull chain %+v", *a.s.Auditor, *b.s.Auditor)
			}
			if ea, eb := fmt.Sprint(a.s.CheckHealth()), fmt.Sprint(b.s.CheckHealth()); ea != eb {
				t.Fatalf("CheckHealth: collapse %s, full chain %s", ea, eb)
			}
			if !reflect.DeepEqual(a.ring.Events(), b.ring.Events()) {
				t.Fatal("trace rings attached mid-run diverged")
			}
			capBytes := a.s.DRAM.Capacity()
			da, db := make([]byte, capBytes), make([]byte, capBytes)
			if err := a.s.DRAM.Peek(0, da); err != nil {
				t.Fatal(err)
			}
			if err := b.s.DRAM.Peek(0, db); err != nil {
				t.Fatal(err)
			}
			if string(da) != string(db) {
				t.Fatal("DRAM contents diverged")
			}
			pa, pb := a.s.K.Processed(), b.s.K.Processed()
			if pa >= pb {
				t.Fatalf("collapsing member ran %d events, full chain %d: nothing collapsed", pa, pb)
			}
			t.Logf("events: collapse %d, full chain %d; detections %d, CP commands %d, postponed REFs %d, auditor violations %d",
				pa, pb, a.s.Detector.Stats().Detections, a.s.NVMC.Stats().AcksPosted,
				a.s.IMC.PostponedRefreshes(), a.s.Auditor.ViolationCount())
		})
	}
}

// runCollapseMix applies one seeded mix of ops and advances to every twin
// alike, then drains them.
func runCollapseMix(seed uint64, rounds int, twins ...*collapseTwin) {
	rng := sim.NewRand(seed)
	s0 := twins[0].s
	trefi := s0.Config.TREFI
	slots := int64(s0.Layout.NumSlots)
	pages := 2 * slots
	big := make([]byte, 1<<20)
	small := make([]byte, 64<<10)
	for r := 0; r < rounds; r++ {
		// Draw the round's action once; every twin applies it.
		act := rng.Intn(100)
		page := int64(rng.Intn(int(pages)))
		hot := slots + int64(rng.Intn(int(slots/2))) // resident after the fill
		lead := sim.Duration(rng.Intn(200)) * sim.Nanosecond
		step := sim.Duration(rng.Intn(int(3*trefi/sim.Nanosecond))) * sim.Nanosecond
		for _, w := range twins {
			s := w.s
			name := fmt.Sprintf("r%d", r)
			switch {
			case act < 15: // a read of a resident page
				w.tgt.Do(hot*PageSize, PageSize, false, w.finish(name+"-hit"))
			case act < 22:
				w.tgt.Do(hot*PageSize, PageSize, true, w.finish(name+"-write"))
			case act < 30: // anywhere: misses leave CP commands in flight
				w.tgt.Do(page*PageSize, PageSize, act%2 == 0, w.finish(name+"-miss"))
			case act < 32:
				s.Store(page*PageSize, pattern(byte(r), PageSize), w.finish(name+"-store"))
			case act < 40: // a host burst across the next REF's due instant
				nr, _ := s.IMC.NextRefreshAt()
				at := nr.Add(-lead)
				if at < s.K.Now() {
					at = s.K.Now()
				}
				s.K.ScheduleAt(at, func() { s.IMC.Read(0, small, w.finish(name+"-burst")) })
			case act < 41: // a 1 MiB burst: REFs due meanwhile wait out one grant
				s.IMC.Read(0, big, w.finish(name+"-long"))
			case act < 42: // a queue of bursts holding the bus past the postponement budget
				for i := 0; i < 16; i++ {
					s.IMC.Read(0, small, w.finish(fmt.Sprintf("%s-train%d", name, i)))
				}
			case act < 44: // self-refresh for one round
				s.IMC.EnterSelfRefresh()
			}
			if r == rounds*3/4 && w.ring == nil {
				w.ring = trace.New(512)
				s.AttachSink(w.ring)
			}
			s.FastForwardIdle(s.K.Now().Add(step))
			s.IMC.ExitSelfRefresh()
		}
	}
	for _, w := range twins {
		// Drain: every op completes within a few hundred tREFI.
		w.s.FastForwardIdle(w.s.K.Now().Add(400 * trefi))
	}
}

// TestBusyRefreshCycleOneEvent pins the collapse's gain: with a host op in
// flight (its next host-CPU phase queued far ahead, as a pool member's next
// op waits) and the CP mailbox idle, every refresh cycle FastForwardIdle
// advances over costs exactly one kernel event, the REF's own, and no
// allocation, while counting as a full detection and poll-only window.
func TestBusyRefreshCycleOneEvent(t *testing.T) {
	s := mustSystem(t, DefaultConfig())
	s.K.RunFor(2 * s.Config.TREFI)
	s.K.Schedule(1000*s.Config.TREFI, func() {}) // the op in flight
	cycle := func() {
		nr, _ := s.IMC.NextRefreshAt()
		s.FastForwardIdle(nr.Add(s.Config.TRFC))
	}
	cycle() // finishes the chain RunFor left in flight
	windows, detections := s.NVMC.Stats().WindowsSeen, s.Detector.Stats().Detections
	const n = 100
	for i := 0; i < n; i++ {
		before := s.K.Processed()
		cycle()
		if got := s.K.Processed() - before; got != 1 {
			t.Fatalf("cycle %d ran %d kernel events, want 1", i, got)
		}
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("%v allocs per busy refresh cycle, want 0", allocs)
	}
	const cycles = n + 51 // AllocsPerRun runs once more to warm up
	if got := s.NVMC.Stats().WindowsSeen - windows; got != cycles {
		t.Errorf("%d windows in %d cycles", got, cycles)
	}
	if got := s.Detector.Stats().Detections - detections; got != cycles {
		t.Errorf("%d detections in %d cycles", got, cycles)
	}
	if s.K.Pending() != 2 {
		t.Errorf("%d events pending, want the op and the next REF", s.K.Pending())
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRefreshCycle is one refresh cycle on one member, advanced to the
// end of the REF's tRFC: busy is FastForwardIdle with a host op in flight
// (the refresh collapse: one event), idle is FastForwardIdle with nothing
// else queued (the idle warp), and lockstep is RunUntil (the full chain of
// REF, detection and window, as -lockstep runs it).
func BenchmarkRefreshCycle(b *testing.B) {
	for _, bc := range []struct {
		name       string
		busy, warp bool
	}{{"busy", true, true}, {"idle", false, true}, {"lockstep", false, false}} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := NewSystem(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if bc.busy {
				s.K.Schedule(sim.Duration(b.N+10)*s.Config.TREFI, func() {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nr, _ := s.IMC.NextRefreshAt()
				if bc.warp {
					s.FastForwardIdle(nr.Add(s.Config.TRFC))
				} else {
					s.K.RunUntil(nr.Add(s.Config.TRFC))
				}
			}
		})
	}
}
