// Package cpolicy is the trace-driven cache-policy simulator behind the
// paper's §VII-B5 claim: "according to our in-house simulation, for the
// TPC-H workloads ... if an LRU replacement policy is used, the DRAM cache
// hit rate of 78.7–99.3% can be achieved as the DRAM cache size is increased
// from 1 GB to 16 GB." It replays page-reference traces against a fully
// associative 4 KB-slot cache under LRC, LRU or CLOCK and reports hit rates.
package cpolicy

import (
	"container/list"
)

// Policy selects the replacement algorithm.
type Policy int

// Policies under study.
const (
	LRC Policy = iota // FIFO over caching order (the PoC's policy)
	LRU
	Clock
)

// Result summarizes one simulation.
type Result struct {
	Policy     Policy
	Slots      int
	Accesses   uint64
	Hits       uint64
	ColdMisses uint64
	Evictions  uint64
}

// HitRate returns hits/accesses (0 if no accesses).
func (r Result) HitRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Accesses)
}

// Simulator replays a page trace.
type Simulator struct {
	policy Policy
	slots  int

	res Result

	// LRU/LRC state.
	ll  *list.List
	pos map[int64]*list.Element

	// Clock state.
	ring    []int64
	ref     []bool
	present map[int64]int
	hand    int
	n       int

	seen map[int64]bool // for cold-miss classification
}

// New returns a simulator with the given slot count.
func New(p Policy, slots int) *Simulator {
	if slots < 1 {
		panic("cpolicy: need at least one slot")
	}
	s := &Simulator{
		policy: p,
		slots:  slots,
		ll:     list.New(),
		pos:    make(map[int64]*list.Element),
		seen:   make(map[int64]bool),
	}
	s.res.Policy = p
	s.res.Slots = slots
	if p == Clock {
		s.ring = make([]int64, slots)
		s.ref = make([]bool, slots)
		s.present = make(map[int64]int)
		for i := range s.ring {
			s.ring[i] = -1
		}
	}
	return s
}

// Access replays one page reference and reports whether it hit.
func (s *Simulator) Access(page int64) bool {
	s.res.Accesses++
	hit := false
	switch s.policy {
	case Clock:
		hit = s.accessClock(page)
	default:
		hit = s.accessList(page)
	}
	if !hit && !s.seen[page] {
		s.res.ColdMisses++
		s.seen[page] = true
	}
	return hit
}

func (s *Simulator) accessList(page int64) bool {
	if e, ok := s.pos[page]; ok {
		s.res.Hits++
		if s.policy == LRU {
			s.ll.MoveToFront(e)
		}
		// LRC: hits do not change caching order.
		return true
	}
	if s.ll.Len() >= s.slots {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.pos, back.Value.(int64))
		s.res.Evictions++
	}
	s.pos[page] = s.ll.PushFront(page)
	return false
}

func (s *Simulator) accessClock(page int64) bool {
	if i, ok := s.present[page]; ok {
		s.res.Hits++
		s.ref[i] = true
		return true
	}
	// Find a victim slot.
	for {
		if s.ring[s.hand] == -1 {
			break
		}
		if s.ref[s.hand] {
			s.ref[s.hand] = false
			s.hand = (s.hand + 1) % s.slots
			continue
		}
		delete(s.present, s.ring[s.hand])
		s.res.Evictions++
		break
	}
	s.ring[s.hand] = page
	s.ref[s.hand] = true
	s.present[page] = s.hand
	s.hand = (s.hand + 1) % s.slots
	return false
}

// Result returns the accumulated statistics.
func (s *Simulator) Result() Result { return s.res }

// Replay runs a whole trace through a fresh simulator.
func Replay(p Policy, slots int, trace []int64) Result {
	s := New(p, slots)
	for _, pg := range trace {
		s.Access(pg)
	}
	return s.Result()
}
