package cp

import (
	"testing"
	"testing/quick"
)

func TestMetaRoundTrip(t *testing.T) {
	entries := []MetaEntry{
		{NANDPage: 100, Dirty: true, Valid: true},
		{NANDPage: 200, Dirty: false, Valid: true},
		{NANDPage: 0, Dirty: false, Valid: false},
	}
	buf := make([]byte, 4096)
	if err := EncodeMeta(buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMeta(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, got[i], entries[i])
		}
	}
}

func TestMetaDetectsUninitialized(t *testing.T) {
	if _, err := DecodeMeta(make([]byte, 4096)); err == nil {
		t.Fatal("zeroed metadata accepted")
	}
}

func TestMetaDetectsCorruption(t *testing.T) {
	buf := make([]byte, 4096)
	if err := EncodeMeta(buf, []MetaEntry{{NANDPage: 9, Valid: true}}); err != nil {
		t.Fatal(err)
	}
	buf[metaHeaderSize] ^= 0xFF
	if _, err := DecodeMeta(buf); err == nil {
		t.Fatal("corrupted metadata accepted")
	}
}

func TestMetaBufferTooSmall(t *testing.T) {
	if err := EncodeMeta(make([]byte, 10), make([]MetaEntry, 4)); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	if _, err := DecodeMeta(make([]byte, 4)); err == nil {
		t.Fatal("tiny decode accepted")
	}
}

func TestMaxMetaEntries(t *testing.T) {
	// The paper's 16 MB metadata area must cover the ~3.9 Mi slots of the
	// PoC's 15 GB cache (§IV-B, §V-C).
	if got := MaxMetaEntries(16 << 20); got < (15<<30)/4096 {
		t.Fatalf("16 MB metadata holds only %d entries, need %d", got, (15<<30)/4096)
	}
	if MaxMetaEntries(4) != 0 {
		t.Fatal("tiny area reports entries")
	}
}

func TestIncrementalUpdateMatchesFullEncode(t *testing.T) {
	entries := make([]MetaEntry, 32)
	full := make([]byte, MetaSizeFor(len(entries)))
	inc := make([]byte, MetaSizeFor(len(entries)))
	if err := EncodeMeta(full, entries); err != nil {
		t.Fatal(err)
	}
	copy(inc, full)
	sum := MetaChecksum(entries)
	// Mutate entry 7 both ways.
	old := entries[7]
	entries[7] = MetaEntry{NANDPage: 1234, Dirty: true, Valid: true}
	if err := EncodeMeta(full, entries); err != nil {
		t.Fatal(err)
	}
	if err := EncodeMetaEntry(inc, 7, entries[7]); err != nil {
		t.Fatal(err)
	}
	sum += MetaTerm(7, entries[7]) - MetaTerm(7, old)
	if err := EncodeMetaHeader(inc, len(entries), sum); err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if full[i] != inc[i] {
			t.Fatalf("byte %d differs between full and incremental encode", i)
		}
	}
	if _, err := DecodeMeta(inc); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalChecksumProperty(t *testing.T) {
	// Any sequence of single-slot updates, each applied as "drop the old
	// term, add the new one", leaves the running sum equal to a full
	// recompute, and the incrementally written buffer decodes.
	f := func(n uint8, ops []uint64) bool {
		entries := make([]MetaEntry, int(n)+1)
		buf := make([]byte, MetaSizeFor(len(entries)))
		if EncodeMeta(buf, entries) != nil {
			return false
		}
		sum := MetaChecksum(entries)
		for _, op := range ops {
			i := int(op % uint64(len(entries)))
			e := unpack(uint32(op >> 32))
			sum += MetaTerm(i, e) - MetaTerm(i, entries[i])
			entries[i] = e
			if EncodeMetaEntry(buf, i, e) != nil || EncodeMetaHeader(buf, len(entries), sum) != nil {
				return false
			}
			if sum != MetaChecksum(entries) {
				return false
			}
		}
		got, err := DecodeMeta(buf)
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range got {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaRejectsTornUpdates(t *testing.T) {
	// The three ways a table can tear between two consistent states: the
	// entry reaches DRAM but its header does not, the header reaches DRAM
	// but its entry does not, and two slots trade values.
	entries := []MetaEntry{
		{NANDPage: 10, Valid: true},
		{NANDPage: 11, Valid: true, Dirty: true},
		{},
		{NANDPage: 13, Valid: true},
	}
	base := make([]byte, MetaSizeFor(len(entries)))
	if err := EncodeMeta(base, entries); err != nil {
		t.Fatal(err)
	}
	sum := MetaChecksum(entries)
	next := MetaEntry{NANDPage: 42, Valid: true, Dirty: true}
	nextSum := sum + MetaTerm(2, next) - MetaTerm(2, entries[2])

	entryOnly := append([]byte(nil), base...)
	if err := EncodeMetaEntry(entryOnly, 2, next); err != nil {
		t.Fatal(err)
	}
	headerOnly := append([]byte(nil), base...)
	if err := EncodeMetaHeader(headerOnly, len(entries), nextSum); err != nil {
		t.Fatal(err)
	}
	swapped := append([]byte(nil), base...)
	if EncodeMetaEntry(swapped, 0, entries[3]) != nil || EncodeMetaEntry(swapped, 3, entries[0]) != nil {
		t.Fatal("encode swap")
	}
	for name, buf := range map[string][]byte{
		"entry without header": entryOnly,
		"header without entry": headerOnly,
		"two slots swapped":    swapped,
	} {
		if _, err := DecodeMeta(buf); err == nil {
			t.Errorf("%s: torn table accepted", name)
		}
	}
	// Both halves together are the next consistent state.
	if EncodeMetaHeader(entryOnly, len(entries), nextSum) != nil {
		t.Fatal("encode header")
	}
	if _, err := DecodeMeta(entryOnly); err != nil {
		t.Fatalf("complete update rejected: %v", err)
	}
}

func TestMetaTermDistinguishesEveryEntry(t *testing.T) {
	// A single-slot tear goes unnoticed only if the old and new entries
	// have the same term. The finaliser is a bijection, so distinct packed
	// values at one slot never collide; spot-check the flag bits and the
	// page field at a few positions.
	for _, i := range []int{0, 1, 4095, 1 << 20} {
		seen := map[uint64]MetaEntry{}
		for _, e := range []MetaEntry{
			{}, {Valid: true}, {Dirty: true}, {Valid: true, Dirty: true},
			{NANDPage: 1}, {NANDPage: 1, Valid: true}, {NANDPage: pageMask, Valid: true, Dirty: true},
		} {
			term := MetaTerm(i, e)
			if prev, ok := seen[term]; ok {
				t.Fatalf("slot %d: %+v and %+v share a term", i, prev, e)
			}
			seen[term] = e
		}
	}
}

func TestEncodeMetaEntryBounds(t *testing.T) {
	buf := make([]byte, MetaSizeFor(2))
	if err := EncodeMetaEntry(buf, 2, MetaEntry{}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestMetaRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 500 {
			raw = raw[:500]
		}
		entries := make([]MetaEntry, len(raw))
		for i, v := range raw {
			entries[i] = MetaEntry{
				NANDPage: v & pageMask,
				Dirty:    v&1 != 0,
				Valid:    v&2 != 0,
			}
		}
		buf := make([]byte, MetaSizeFor(len(entries)))
		if err := EncodeMeta(buf, entries); err != nil {
			return false
		}
		got, err := DecodeMeta(buf)
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range got {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
