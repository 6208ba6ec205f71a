package nvdc

import (
	"testing"
	"testing/quick"
)

func TestLRCVictimIsCachingOrder(t *testing.T) {
	r := newLRC(4)
	r.Insert(1)
	r.Insert(2)
	r.Insert(3)
	r.Touch(1) // must not protect under LRC
	if v := r.Victim(); v != 1 {
		t.Fatalf("victim = %d, want 1 (first cached)", v)
	}
	if v := r.Victim(); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
}

// refLRC is the plain model lrc is held to: a FIFO of insertions and a set
// of cached slots, where a popped entry whose slot is not cached is skipped.
type refLRC struct {
	queue  []int
	cached map[int]bool
}

func (r *refLRC) insert(s int) { r.queue = append(r.queue, s); r.cached[s] = true }
func (r *refLRC) remove(s int) { delete(r.cached, s) }
func (r *refLRC) victim() int {
	for len(r.queue) > 0 {
		s := r.queue[0]
		r.queue = r.queue[1:]
		if r.cached[s] {
			delete(r.cached, s)
			return s
		}
	}
	return -1
}

// TestLRCRemoveIsLazy drives lrc and refLRC with the same operations and
// requires the same victims and lengths. The inputs cover a removed slot
// that is skipped, a slot removed and cached again before its stale entry
// pops (it is evicted at the older position), and a long mixed run that
// makes the queue compact in place.
func TestLRCRemoveIsLazy(t *testing.T) {
	const slots = 16
	type op struct {
		kind byte // 'i' insert, 'r' remove, 'v' victim
		slot int
	}
	long := make([]op, 3000)
	x := uint32(7)
	for i := range long {
		x = x*1664525 + 1013904223
		long[i] = op{"iirv"[x>>30], int(x>>8) % slots}
	}
	for name, ops := range map[string][]op{
		"removed slot skipped":       {{'i', 1}, {'i', 2}, {'r', 1}, {'v', 0}, {'v', 0}},
		"re-cached before stale pop": {{'i', 1}, {'i', 2}, {'r', 1}, {'i', 1}, {'v', 0}, {'v', 0}, {'v', 0}},
		"long mixed run":             long,
	} {
		got, want := newLRC(slots), &refLRC{cached: map[int]bool{}}
		for i, o := range ops {
			switch o.kind {
			case 'i':
				got.Insert(o.slot)
				want.insert(o.slot)
			case 'r':
				got.Remove(o.slot)
				want.remove(o.slot)
			case 'v':
				if g, w := got.Victim(), want.victim(); g != w {
					t.Fatalf("%s: op %d: victim = %d, want %d", name, i, g, w)
				}
			}
			if got.Len() != len(want.cached) {
				t.Fatalf("%s: op %d: len = %d, want %d", name, i, got.Len(), len(want.cached))
			}
		}
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	r := newLRU()
	r.Insert(1)
	r.Insert(2)
	r.Insert(3)
	r.Touch(1)
	if v := r.Victim(); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
}

func TestLRURemove(t *testing.T) {
	r := newLRU()
	r.Insert(1)
	r.Insert(2)
	r.Remove(2)
	if v := r.Victim(); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
	if r.Victim() != -1 {
		t.Fatal("empty replacer returned a victim")
	}
}

func TestClockSecondChance(t *testing.T) {
	r := newClock(8)
	r.Insert(0)
	r.Insert(1)
	r.Insert(2)
	r.Touch(0)
	// Victim scan clears ref bits; 0 was re-referenced after insert, but
	// all three have ref set from insertion — the hand clears them in order
	// and evicts the first it revisits un-referenced.
	v := r.Victim()
	if v < 0 || v > 2 {
		t.Fatalf("victim = %d", v)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestClockRemove(t *testing.T) {
	r := newClock(4)
	r.Insert(1)
	r.Insert(2)
	r.Remove(1)
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	if v := r.Victim(); v != 2 {
		t.Fatalf("victim = %d, want 2", v)
	}
}

// Property: for every policy, inserting N distinct slots then taking N
// victims returns each slot exactly once (conservation).
func TestReplacerConservationProperty(t *testing.T) {
	f := func(policyRaw uint8, nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		var r replacer
		switch policyRaw % 3 {
		case 0:
			r = newLRC(n)
		case 1:
			r = newLRU()
		default:
			r = newClock(n)
		}
		for i := 0; i < n; i++ {
			r.Insert(i)
		}
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			v := r.Victim()
			if v < 0 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return r.Victim() == -1 && len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyLRC.String() != "lrc" || PolicyLRU.String() != "lru" || PolicyClock.String() != "clock" {
		t.Fatal("policy names")
	}
}

func TestNewReplacerSelects(t *testing.T) {
	if _, ok := newReplacer(PolicyLRU, 4).(*lru); !ok {
		t.Fatal("PolicyLRU did not build lru")
	}
	if _, ok := newReplacer(PolicyClock, 4).(*clock); !ok {
		t.Fatal("PolicyClock did not build clock")
	}
	if _, ok := newReplacer(PolicyLRC, 4).(*lrc); !ok {
		t.Fatal("PolicyLRC did not build lrc")
	}
}
