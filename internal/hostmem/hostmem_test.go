package hostmem

import (
	"testing"
	"testing/quick"
)

func TestLayoutFig5(t *testing.T) {
	// 16 GB region, 16 MB metadata (§V-C), ~15/16 slot fraction.
	l, err := NewLayout(16<<30, 16<<20, 0.9375)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.CPOffset != 0 || l.CPSize != PageSize {
		t.Fatal("CP area not first page")
	}
	if l.MetaSize != 16<<20 {
		t.Fatalf("metadata = %d, want 16 MB", l.MetaSize)
	}
	// ~15 GB of slots.
	gotGB := float64(l.NumSlots) * PageSize / (1 << 30)
	if gotGB < 14.5 || gotGB > 15.5 {
		t.Fatalf("slot space = %.2f GB, want ~15 GB", gotGB)
	}
}

func TestSlotAddressing(t *testing.T) {
	l, err := NewLayout(1<<20, PageSize, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l.NumSlots; i++ {
		a := l.SlotAddr(i)
		if got := l.SlotOf(a); got != i {
			t.Fatalf("SlotOf(SlotAddr(%d)) = %d", i, got)
		}
		if got := l.SlotOf(a + PageSize - 1); got != i {
			t.Fatalf("last byte of slot %d maps to %d", i, got)
		}
	}
	if l.SlotOf(0) != -1 {
		t.Fatal("CP area mapped to a slot")
	}
	if l.SlotOf(l.SlotAddr(l.NumSlots)) != -1 {
		t.Fatal("address past last slot mapped")
	}
}

func TestLayoutTooSmall(t *testing.T) {
	if _, err := NewLayout(2*PageSize, PageSize, 1.0); err == nil {
		t.Fatal("tiny region accepted")
	}
	if _, err := NewLayout(1<<20, PageSize, 0); err == nil {
		t.Fatal("zero slot fraction accepted")
	}
}

func TestMetadataRoundsToPage(t *testing.T) {
	l, err := NewLayout(1<<20, 100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if l.MetaSize != PageSize {
		t.Fatalf("metadata size %d not page-rounded", l.MetaSize)
	}
}

// Property: for any valid layout, every slot lies entirely inside the
// region, above the metadata area.
func TestLayoutDisjointProperty(t *testing.T) {
	f := func(sizePagesRaw uint16, metaPagesRaw uint8) bool {
		sizePages := int64(sizePagesRaw)%4096 + 4
		metaPages := int64(metaPagesRaw)%8 + 1
		l, err := NewLayout(sizePages*PageSize, metaPages*PageSize, 0.9)
		if err != nil {
			return true // rejected is fine
		}
		if l.Validate() != nil {
			return false
		}
		first := l.SlotAddr(0)
		last := l.SlotAddr(l.NumSlots-1) + PageSize
		return first >= l.MetaOffset+l.MetaSize && last <= l.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
