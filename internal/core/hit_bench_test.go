package core

import "testing"

// BenchmarkMemberHit is the DRAM-cache hit path on one member: a 4 KiB read
// or write of a resident page through FioTarget.Do, run to completion on the
// member's kernel with refresh running, cycling over the resident pages.
// Every op hits, so cp, nvmc and media stay off the path (the benchmark's
// micro.member_hit_us_per_op measures the same path on the steady pool).
func BenchmarkMemberHit(b *testing.B) {
	for _, bc := range []struct {
		name  string
		write bool
	}{{"read", false}, {"write", true}} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := NewSystem(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			const pages = 256
			tgt := s.NewFioTarget()
			done := false
			markDone := func() { done = true }
			pending := func() bool { return !done }
			for p := int64(0); p < pages; p++ {
				done = false
				tgt.Do(p*PageSize, PageSize, true, markDone)
				s.K.RunWhile(pending)
			}
			tgt.SetWalkFootprint(15 << 30)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done = false
				tgt.Do(int64(i%pages)*PageSize, PageSize, bc.write, markDone)
				s.K.RunWhile(pending)
			}
		})
	}
}

// missRig is a member whose every op misses: the cache holds pages
// [n, 2n) of a 2n-page cycle (n slots), all of them written back to NAND
// once, so the op on page i evicts the oldest page (LRC) with a CP
// writeback and refills page i with a CP cachefill from NAND, both through
// the real NVMC in tRFC windows, with refresh running.
type missRig struct {
	s          *System
	tgt        *FioTarget
	next       int64
	done       bool
	markDoneFn func()
}

func newMissRig(tb testing.TB) *missRig {
	tb.Helper()
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	r := &missRig{s: s, tgt: s.NewFioTarget()}
	r.markDoneFn = func() { r.done = true }
	// Fill the cache (free-slot fast fills), then cycle it once: every
	// page of the cycle is then on NAND.
	for i := 0; i < 3*s.Layout.NumSlots; i++ {
		r.op(true)
	}
	if st := s.Driver.Stats(); st.FreeSlots != 0 || st.Cachefills == 0 {
		tb.Fatalf("miss rig not warm: %+v", st)
	}
	return r
}

// op runs one 4 KiB op on the next page of the cycle to completion.
func (r *missRig) op(write bool) {
	pages := 2 * int64(r.s.Layout.NumSlots)
	r.done = false
	r.tgt.Do(r.next%pages*PageSize, PageSize, write, r.markDoneFn)
	r.next++
	for !r.done && r.s.K.Step() {
	}
}

// BenchmarkMemberMiss is the miss path on one member: a 4 KiB read or
// write that misses the DRAM cache, evicting a page with a CP writeback
// and refilling with a CP cachefill, through the real NVMC and FTL in
// tRFC windows, with refresh running (missRig).
func BenchmarkMemberMiss(b *testing.B) {
	for _, bc := range []struct {
		name  string
		write bool
	}{{"read", false}, {"write", true}} {
		b.Run(bc.name, func(b *testing.B) {
			r := newMissRig(b)
			misses := r.s.Driver.Stats().Misses
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.op(bc.write)
			}
			b.StopTimer()
			if got := r.s.Driver.Stats().Misses - misses; got != uint64(b.N) {
				b.Fatalf("%d misses in %d ops", got, b.N)
			}
		})
	}
}
