package nvdc

import "container/list"

// Policy selects the victim-slot replacement algorithm.
type Policy int

// Replacement policies. The PoC uses LRC (§IV-B: least-recently *cached*, a
// FIFO over cache insertion order, chosen for implementation simplicity).
// LRU is the policy the paper's in-house simulation shows would lift the
// TPC-H hit rate to 78.7–99.3% (§VII-B5); CLOCK is a cheap LRU approximation
// included for the eviction-search ablation (§VII-C).
const (
	PolicyLRC Policy = iota
	PolicyLRU
	PolicyClock
)

func (p Policy) String() string {
	switch p {
	case PolicyLRC:
		return "lrc"
	case PolicyLRU:
		return "lru"
	case PolicyClock:
		return "clock"
	default:
		return "policy?"
	}
}

// replacer is the victim-selection engine. Implementations are not
// goroutine-safe; the driver serializes access.
type replacer interface {
	// Insert records a newly cached slot.
	Insert(slot int)
	// Touch records a hit on a cached slot.
	Touch(slot int)
	// Victim removes and returns the slot to evict (-1 if empty).
	Victim() int
	// Remove deletes a slot (e.g. trimmed) without choosing it.
	Remove(slot int)
	// Len reports tracked slots.
	Len() int
}

func newReplacer(p Policy, slots int) replacer {
	switch p {
	case PolicyLRU:
		return newLRU()
	case PolicyClock:
		return newClock(slots)
	default:
		return newLRC(slots)
	}
}

// lrc is the paper's FIFO-of-caching-order policy. Removal is lazy: a
// removed slot's queue entry stays until it reaches the head, where it is
// skipped unless the slot was cached again meanwhile, in which case the
// slot is evicted at that older position.
type lrc struct {
	queue  []int // FIFO entries; queue[head:] are pending
	head   int
	member []bool // per slot: cached
	n      int
}

func newLRC(slots int) *lrc {
	return &lrc{queue: make([]int, 0, slots), member: make([]bool, slots)}
}

func (l *lrc) Insert(slot int) {
	if len(l.queue) == cap(l.queue) && l.head >= len(l.queue)/2 {
		// Reuse the popped prefix before append would grow the array.
		// Only once it is half the array: each compaction then moves at
		// most as many entries as were popped since the last one.
		l.queue = l.queue[:copy(l.queue, l.queue[l.head:])]
		l.head = 0
	}
	l.queue = append(l.queue, slot)
	if !l.member[slot] {
		l.member[slot] = true
		l.n++
	}
}
func (l *lrc) Touch(int) {} // hits do not affect caching order
func (l *lrc) Victim() int {
	for l.head < len(l.queue) {
		s := l.queue[l.head]
		l.head++
		if l.member[s] {
			l.member[s] = false
			l.n--
			return s
		}
	}
	return -1
}
func (l *lrc) Remove(slot int) { // lazy removal
	if l.member[slot] {
		l.member[slot] = false
		l.n--
	}
}
func (l *lrc) Len() int { return l.n }

// lru is a classic move-to-front list.
type lru struct {
	ll  *list.List // front = most recent
	pos map[int]*list.Element
}

func newLRU() *lru { return &lru{ll: list.New(), pos: make(map[int]*list.Element)} }

func (l *lru) Insert(slot int) { l.pos[slot] = l.ll.PushFront(slot) }
func (l *lru) Touch(slot int) {
	if e, ok := l.pos[slot]; ok {
		l.ll.MoveToFront(e)
	}
}
func (l *lru) Victim() int {
	e := l.ll.Back()
	if e == nil {
		return -1
	}
	l.ll.Remove(e)
	s := e.Value.(int)
	delete(l.pos, s)
	return s
}
func (l *lru) Remove(slot int) {
	if e, ok := l.pos[slot]; ok {
		l.ll.Remove(e)
		delete(l.pos, slot)
	}
}
func (l *lru) Len() int { return len(l.pos) }

// clock is the second-chance ring.
type clock struct {
	present []bool
	ref     []bool
	hand    int
	n       int
}

func newClock(slots int) *clock {
	return &clock{present: make([]bool, slots), ref: make([]bool, slots)}
}

func (c *clock) Insert(slot int) {
	if !c.present[slot] {
		c.present[slot] = true
		c.n++
	}
	c.ref[slot] = true
}
func (c *clock) Touch(slot int) {
	if c.present[slot] {
		c.ref[slot] = true
	}
}
func (c *clock) Victim() int {
	if c.n == 0 {
		return -1
	}
	for {
		if c.present[c.hand] {
			if c.ref[c.hand] {
				c.ref[c.hand] = false
			} else {
				s := c.hand
				c.present[s] = false
				c.n--
				c.hand = (c.hand + 1) % len(c.present)
				return s
			}
		}
		c.hand = (c.hand + 1) % len(c.present)
	}
}
func (c *clock) Remove(slot int) {
	if c.present[slot] {
		c.present[slot] = false
		c.n--
	}
}
func (c *clock) Len() int { return c.n }

// ReplayResult counts one trace replay.
type ReplayResult struct {
	Accesses, Hits, ColdMisses, Evictions uint64
}

// HitRate returns Hits/Accesses (0 with no accesses).
func (r ReplayResult) HitRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Accesses)
}

// Replay runs a page-reference trace through policy p's replacer over a
// fully associative cache of slots pages, the way the driver fills its
// slots: a miss takes the free slots in order 0..slots-1, then the
// replacer's victim. It is the engine of the §VII-B5 trace study.
func Replay(p Policy, slots int, trace []int64) ReplayResult {
	r := newReplacer(p, slots)
	at := map[int64]int{}        // page -> slot, -1 once evicted
	held := make([]int64, slots) // slot -> page
	var res ReplayResult
	for _, pg := range trace {
		res.Accesses++
		s, seen := at[pg]
		switch {
		case seen && s >= 0:
			res.Hits++
			r.Touch(s)
			continue
		case !seen:
			res.ColdMisses++
		}
		if s = r.Len(); s == slots {
			s = r.Victim()
			at[held[s]] = -1
			res.Evictions++
		}
		held[s], at[pg] = pg, s
		r.Insert(s)
	}
	return res
}
