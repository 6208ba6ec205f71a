package ftl

import (
	"bytes"
	"testing"
)

// FuzzFTLMapping drives the FTL with an arbitrary write/read/trim op stream
// decoded from the fuzz input (two bytes per op: selector+payload, lpn) and
// checks, against a shadow map, that the mapping machinery never lies:
// every read returns the last written page (or zeros when unmapped),
// IsMapped tracks the shadow exactly, and the structural invariants hold
// after every GC the stream provokes.
func FuzzFTLMapping(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0, 2})            // write, read, trim, write
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0})      // hammer one lpn, then read
	f.Add(bytes.Repeat([]byte{0, 3, 0, 4, 0, 5}, 8)) // overwrite churn -> GC
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 64
		if len(data) > 2*maxOps {
			data = data[:2*maxOps]
		}
		k, ftl := newFTL(t, 16, 8)
		logical := ftl.LogicalPages()
		shadow := map[int64]int64{} // lpn -> tag of last acked write
		var tag int64

		for i := 0; i+1 < len(data); i += 2 {
			lpn := int64(data[i+1]) % logical
			switch data[i] % 3 {
			case 0: // write
				tag++
				want := tag
				ftl.WritePage(lpn, pageOf(want), func(err error) {
					if err != nil {
						t.Fatalf("write lpn %d: %v", lpn, err)
					}
				})
				k.Run()
				shadow[lpn] = want
			case 1: // read + verify
				ftl.ReadPage(lpn, func(got []byte, err error) {
					if err != nil {
						t.Fatalf("read lpn %d: %v", lpn, err)
					}
					want, ok := shadow[lpn]
					if !ok {
						if !bytes.Equal(got, make([]byte, PageSize)) {
							t.Fatalf("unmapped lpn %d read nonzero", lpn)
						}
						return
					}
					if !bytes.Equal(got, pageOf(want)) {
						t.Fatalf("lpn %d: read does not match last write (tag %d)", lpn, want)
					}
				})
				k.Run()
			case 2: // trim
				ftl.Trim(lpn)
				k.Run()
				delete(shadow, lpn)
			}
			if _, inShadow := shadow[lpn]; ftl.IsMapped(lpn) != inShadow {
				t.Fatalf("IsMapped(%d) = %v, shadow says %v", lpn, ftl.IsMapped(lpn), inShadow)
			}
			if err := ftl.CheckInvariants(); err != nil {
				t.Fatalf("after op %d: %v", i/2, err)
			}
		}
		// Final sweep: the whole shadow must read back.
		for lpn, want := range shadow {
			lpn, want := lpn, want
			ftl.ReadPage(lpn, func(got []byte, err error) {
				if err != nil || !bytes.Equal(got, pageOf(want)) {
					t.Fatalf("final readback lpn %d: err=%v", lpn, err)
				}
			})
		}
		k.Run()
	})
}
