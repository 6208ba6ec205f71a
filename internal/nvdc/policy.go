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

func newLRC(slots int) *lrc { return &lrc{member: make([]bool, slots)} }

func (l *lrc) Insert(slot int) {
	if len(l.queue) == cap(l.queue) && l.head > 0 {
		// Reuse the popped prefix before append would grow the array.
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
