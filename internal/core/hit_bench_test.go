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
