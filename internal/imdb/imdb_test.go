package imdb

import (
	"testing"

	"nvdimmc/internal/sim"
)

// flatDev is an instantaneous functional device for engine unit tests.
type flatDev struct{ b []byte }

func (d *flatDev) Load(off int64, buf []byte, done func()) {
	copy(buf, d.b[off:])
	if done != nil {
		done()
	}
}
func (d *flatDev) Store(off int64, data []byte, done func()) {
	copy(d.b[off:], data)
	if done != nil {
		done()
	}
}

func newDB(t *testing.T, capacity int64) (*sim.Kernel, *DB) {
	t.Helper()
	k := sim.NewKernel()
	dev := &flatDev{b: make([]byte, capacity)}
	return k, New(dev, k, capacity, DefaultCost())
}

func TestCreateAndScan(t *testing.T) {
	k, db := newDB(t, 1<<20)
	var tbl *Table
	db.CreateTable("t", 1000, []string{"a", "b"}, func(row int64, col int) int64 {
		return row + int64(col)*1000000
	}, func(tt *Table, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tbl = tt
	})
	k.Run()
	if tbl == nil {
		t.Fatal("create did not complete")
	}
	var sum int64
	done := false
	db.ScanAgg("t", "a", 1, 1, func(s int64, err error) {
		if err != nil {
			t.Error(err)
		}
		sum, done = s, true
	})
	k.Run()
	if !done {
		t.Fatal("scan did not complete")
	}
	want := int64(1000 * 999 / 2) // sum 0..999
	if sum != want {
		t.Fatalf("scan sum = %d, want %d", sum, want)
	}
}

func TestScanFractionAndPasses(t *testing.T) {
	k, db := newDB(t, 1<<20)
	db.CreateTable("t", 1000, []string{"a"}, func(row int64, _ int) int64 { return 1 }, func(*Table, error) {})
	k.Run()
	var sum int64
	db.ScanAgg("t", "a", 0.5, 2, func(s int64, err error) {
		if err != nil {
			t.Error(err)
		}
		sum = s
	})
	k.Run()
	if sum != 1000 { // 500 rows x 2 passes x value 1
		t.Fatalf("fractional scan sum = %d, want 1000", sum)
	}
}

func TestScanTakesComputeTime(t *testing.T) {
	k, db := newDB(t, 1<<20)
	db.CreateTable("t", 4096, []string{"a"}, func(int64, int) int64 { return 0 }, func(*Table, error) {})
	k.Run()
	start := k.Now()
	db.ScanAgg("t", "a", 1, 1, func(int64, error) {})
	k.Run()
	elapsed := k.Now().Sub(start)
	// 4096 rows x 8 B = 32 KB = 8 x 4 KB of compute at 26 us each.
	want := 8 * db.cost.ScanComputePer4K
	if elapsed < want {
		t.Fatalf("scan elapsed %v < compute floor %v", elapsed, want)
	}
}

func TestProbe(t *testing.T) {
	k, db := newDB(t, 1<<20)
	db.CreateTable("t", 5000, []string{"a"}, func(row int64, _ int) int64 { return row }, func(*Table, error) {})
	k.Run()
	doneOK := false
	db.Probe("t", "a", 200, 64, sim.NewRand(1), func(_ byte, err error) {
		if err != nil {
			t.Error(err)
		}
		doneOK = true
	})
	k.Run()
	if !doneOK {
		t.Fatal("probe did not complete")
	}
}

func TestErrorsOnMissingTableColumn(t *testing.T) {
	k, db := newDB(t, 1<<20)
	var gotErr error
	db.ScanAgg("none", "a", 1, 1, func(_ int64, err error) { gotErr = err })
	k.Run()
	if gotErr == nil {
		t.Fatal("scan of missing table accepted")
	}
	db.CreateTable("t", 10, []string{"a"}, func(int64, int) int64 { return 0 }, func(*Table, error) {})
	k.Run()
	db.Probe("t", "nope", 1, 64, sim.NewRand(1), func(_ byte, err error) { gotErr = err })
	k.Run()
	if gotErr == nil {
		t.Fatal("probe of missing column accepted")
	}
}

func TestCapacityEnforced(t *testing.T) {
	k, db := newDB(t, 1<<12)
	var gotErr error
	db.CreateTable("big", 1<<20, []string{"a"}, func(int64, int) int64 { return 0 },
		func(_ *Table, err error) { gotErr = err })
	k.Run()
	if gotErr == nil {
		t.Fatal("oversized table accepted")
	}
}

func TestMixedLoadValidatesCleanly(t *testing.T) {
	k, db := newDB(t, 1<<20)
	m, err := NewMixedLoad(db, 200, 64)
	if err != nil {
		t.Fatal(err)
	}
	inited := false
	m.Init(func() { inited = true })
	k.Run()
	if !inited {
		t.Fatal("init did not complete")
	}
	finished := false
	m.Run(16, 25, func() { finished = true })
	k.Run()
	if !finished {
		t.Fatal("mixed load did not complete")
	}
	if m.Transactions != 16*25 {
		t.Fatalf("transactions = %d, want 400", m.Transactions)
	}
	if m.ValidationFailures != 0 {
		t.Fatalf("%d validation failures on a correct device", m.ValidationFailures)
	}
}

func TestMixedLoadDetectsCorruption(t *testing.T) {
	k := sim.NewKernel()
	dev := &flatDev{b: make([]byte, 1<<20)}
	db := New(dev, k, 1<<20, DefaultCost())
	m, err := NewMixedLoad(db, 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	m.Init(nil)
	k.Run()
	// Corrupt a record byte behind the engine's back ("bad device").
	dev.b[m.base+30] ^= 0xFF
	m.Run(4, 200, func() {})
	k.Run()
	if m.ValidationFailures == 0 {
		t.Fatal("corruption not detected by validation")
	}
}

func TestMixedLoadCapacity(t *testing.T) {
	_, db := newDB(t, 1<<12)
	if _, err := NewMixedLoad(db, 1<<20, 64); err == nil {
		t.Fatal("oversized mixed-load table accepted")
	}
}
