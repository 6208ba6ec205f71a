package nand

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/sim"
)

// pageStep is one operation on block 0 of a fresh array and the state it
// must leave: prog programs page with every byte fill (0 = an all-zero
// page), read expects every byte to be fill, erase wipes the block, bad
// marks it bad, failNext arms a program failure on the next consult and
// failAll on every one. err is a substring of the expected error ("" =
// none); a program rejected as illegal must not consult the fault
// registry. next is the block's next programmable page afterwards and
// index whether it holds a data index.
type pageStep struct {
	op    string
	page  int
	fill  byte
	err   string
	next  int
	index bool
}

// TestPageStateInvariants pins what the block's state derives from its
// nextPage and data index alone: programmed iff page < nextPage, zero iff
// programmed without stored data, legality checks in the same order with
// the same errors, an injected program failure leaving the page erased,
// and erase resetting all of it.
func TestPageStateInvariants(t *testing.T) {
	const (
		overwrite  = "overwrite of programmed page"
		outOfOrder = "out-of-order program"
		injected   = "program failed"
		badBlock   = "program to bad block"
	)
	cases := []struct {
		name  string
		steps []pageStep
	}{
		{"never-programmed reads 0xFF", []pageStep{
			{op: "read", page: 0, fill: 0xFF},
			{op: "read", page: 7, fill: 0xFF},
		}},
		{"zero page reads zeros without a data index", []pageStep{
			{op: "prog", page: 0, fill: 0, next: 1},
			{op: "prog", page: 1, fill: 0, next: 2},
			{op: "read", page: 0, fill: 0, next: 2},
			{op: "read", page: 1, fill: 0, next: 2},
			{op: "read", page: 2, fill: 0xFF, next: 2},
		}},
		{"data page reads back its bytes", []pageStep{
			{op: "prog", page: 0, fill: 0, next: 1},
			{op: "prog", page: 1, fill: 0x5A, next: 2, index: true},
			{op: "prog", page: 2, fill: 0, next: 3, index: true},
			{op: "read", page: 0, fill: 0, next: 3, index: true},
			{op: "read", page: 1, fill: 0x5A, next: 3, index: true},
			{op: "read", page: 2, fill: 0, next: 3, index: true},
			{op: "read", page: 3, fill: 0xFF, next: 3, index: true},
		}},
		{"overwrite and out-of-order rejected", []pageStep{
			{op: "prog", page: 0, fill: 0x11, next: 1, index: true},
			{op: "prog", page: 0, fill: 0x22, err: overwrite, next: 1, index: true},
			{op: "prog", page: 2, fill: 0x22, err: outOfOrder, next: 1, index: true},
			{op: "prog", page: 0, fill: 0, err: overwrite, next: 1, index: true},
			{op: "read", page: 0, fill: 0x11, next: 1, index: true},
			{op: "read", page: 2, fill: 0xFF, next: 1, index: true},
		}},
		{"legality is checked before an injected failure", []pageStep{
			{op: "prog", page: 0, fill: 0, next: 1},
			{op: "failAll", next: 1},
			{op: "prog", page: 0, fill: 0x33, err: overwrite, next: 1},
			{op: "prog", page: 3, fill: 0x33, err: outOfOrder, next: 1},
			{op: "prog", page: 1, fill: 0x33, err: injected, next: 1},
		}},
		{"injected failure leaves the page unprogrammed", []pageStep{
			{op: "prog", page: 0, fill: 0x44, next: 1, index: true},
			{op: "failNext", next: 1, index: true},
			{op: "prog", page: 1, fill: 0x55, err: injected, next: 1, index: true},
			{op: "read", page: 1, fill: 0xFF, next: 1, index: true},
			{op: "prog", page: 2, fill: 0x55, err: outOfOrder, next: 1, index: true},
			{op: "prog", page: 1, fill: 0x66, next: 2, index: true},
			{op: "read", page: 1, fill: 0x66, next: 2, index: true},
		}},
		{"injected failure of a first zero page", []pageStep{
			{op: "failNext"},
			{op: "prog", page: 0, fill: 0x77, err: injected},
			{op: "read", page: 0, fill: 0xFF},
			{op: "prog", page: 0, fill: 0, next: 1},
			{op: "read", page: 0, fill: 0, next: 1},
		}},
		{"bad block is checked first", []pageStep{
			{op: "prog", page: 0, fill: 0x12, next: 1, index: true},
			{op: "bad", next: 1, index: true},
			{op: "prog", page: 0, fill: 0x12, err: badBlock, next: 1, index: true},
			{op: "prog", page: 1, fill: 0x12, err: badBlock, next: 1, index: true},
			{op: "read", page: 0, fill: 0x12, next: 1, index: true},
		}},
		{"erase resets all of it", []pageStep{
			{op: "prog", page: 0, fill: 0x99, next: 1, index: true},
			{op: "prog", page: 1, fill: 0, next: 2, index: true},
			{op: "erase"},
			{op: "read", page: 0, fill: 0xFF},
			{op: "read", page: 1, fill: 0xFF},
			{op: "prog", page: 1, fill: 0, err: outOfOrder},
			{op: "prog", page: 0, fill: 0, next: 1},
			{op: "read", page: 0, fill: 0, next: 1},
			{op: "prog", page: 1, fill: 0xAB, next: 2, index: true},
			{op: "erase"},
			{op: "read", page: 1, fill: 0xFF},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			a := newArray(k)
			g := fault.NewRegistry(1)
			a.SetFaults(g)
			b := &a.dies[0][0].blocks[0]
			for i, st := range tc.steps {
				addr := PageAddr{Page: st.page}
				hits := g.Hits(fault.NANDProgramFail)
				var err error
				switch st.op {
				case "prog":
					data := bytes.Repeat([]byte{st.fill}, PageSize)
					a.Program(addr, data, func(e error) { err = e })
				case "read":
					buf := make([]byte, PageSize)
					a.Read(addr, buf, func(e error) { err = e })
					k.Run()
					if want := bytes.Repeat([]byte{st.fill}, PageSize); !bytes.Equal(buf, want) {
						t.Fatalf("step %d: page %d does not read as %#x", i, st.page, st.fill)
					}
				case "erase":
					a.Erase(addr, func(e error) { err = e })
				case "bad":
					a.MarkBad(addr)
				case "failNext":
					g.OnOccurrence(fault.NANDProgramFail, g.Hits(fault.NANDProgramFail)+1)
				case "failAll":
					g.Always(fault.NANDProgramFail)
				default:
					t.Fatalf("step %d: unknown op %q", i, st.op)
				}
				k.Run()
				switch {
				case st.err == "" && err != nil:
					t.Fatalf("step %d (%s page %d): %v", i, st.op, st.page, err)
				case st.err != "" && (err == nil || !strings.Contains(err.Error(), st.err)):
					t.Fatalf("step %d (%s page %d): error %v, want %q", i, st.op, st.page, err, st.err)
				case st.err != "" && st.err != injected && g.Hits(fault.NANDProgramFail) != hits:
					t.Fatalf("step %d (%s page %d): illegal program consulted the fault registry", i, st.op, st.page)
				}
				if int(b.nextPage) != st.next || (b.data != nil) != st.index {
					t.Fatalf("step %d (%s page %d): nextPage %d index %v, want %d %v",
						i, st.op, st.page, b.nextPage, b.data != nil, st.next, st.index)
				}
				for p := 0; p < a.cfg.PagesPerBlock; p++ {
					if b.programmed(p) != (p < st.next) {
						t.Fatalf("step %d: page %d programmed = %v with nextPage %d", i, p, b.programmed(p), st.next)
					}
				}
			}
		})
	}
}

// TestProgramFailCounted checks the injected failure's counters: a failed
// program counts as a program fail, not a program.
func TestProgramFailCounted(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	g := fault.NewRegistry(1)
	g.OnOccurrence(fault.NANDProgramFail, 1)
	a.SetFaults(g)
	page := make([]byte, PageSize)
	a.Program(PageAddr{Page: 0}, page, func(error) {})
	k.Run()
	a.Program(PageAddr{Page: 0}, page, func(error) {})
	k.Run()
	if _, programs, _, fails := a.Stats(); programs != 1 || fails != 1 {
		t.Fatalf("programs %d fails %d, want 1 and 1", programs, fails)
	}
}

// TestNewAllocsIndependentOfBlocks pins New's allocation count: per-block
// state lives in one slice per die, so the count does not grow with
// BlocksPerDie (it grew by 3 per block while each block carried its own
// programmed, zero and data tables).
func TestNewAllocsIndependentOfBlocks(t *testing.T) {
	allocs := func(blocks int) uint64 {
		cfg := DefaultConfig()
		cfg.BlocksPerDie = blocks
		return fewestAllocs(20, func() { New(sim.NewKernel(), cfg) })
	}
	if small, large := allocs(16), allocs(512); small != large {
		t.Fatalf("New made %d allocations at 16 blocks per die, %d at 512", small, large)
	}
}

// fewestAllocs returns the fewest heap allocations f made in runs calls.
// The minimum, not the mean, so allocations outside f (a -race build's
// sync.Pool drops, other goroutines) do not count.
func fewestAllocs(runs int, f func()) uint64 {
	fewest := uint64(math.MaxUint64)
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
