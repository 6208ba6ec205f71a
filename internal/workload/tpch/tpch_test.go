package tpch

import (
	"testing"

	"nvdimmc/internal/imdb"
	"nvdimmc/internal/sim"
)

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

func TestSpecsCoverAll22(t *testing.T) {
	specs := Specs()
	if len(specs) != 22 {
		t.Fatalf("specs = %d, want 22", len(specs))
	}
	for i, q := range specs {
		if q.ID != i+1 {
			t.Fatalf("spec %d has ID %d", i, q.ID)
		}
		if len(q.Phases) == 0 {
			t.Fatalf("%s has no phases", q.Name())
		}
	}
	// Q1 is the pure-scan anchor, Q20 the probe storm.
	for _, ph := range specs[0].Phases {
		if ph.Kind != Scan {
			t.Fatal("Q1 must be scan-only")
		}
	}
	for _, ph := range specs[19].Phases {
		if ph.Kind != ProbePhase {
			t.Fatal("Q20 must be probe-only")
		}
	}
}

func TestSpecsReferenceRealColumns(t *testing.T) {
	// Every phase must name a table/column BuildDataset materializes.
	k := sim.NewKernel()
	dev := &flatDev{b: make([]byte, 64<<20)}
	db := imdb.New(dev, k, 64<<20, imdb.DefaultCost())
	built := false
	BuildDataset(db, Scale{TotalBytes: 16 << 20}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		built = true
	})
	k.Run()
	if !built {
		t.Fatal("build did not finish")
	}
	for _, q := range Specs() {
		for _, ph := range q.Phases {
			tbl := db.Table(ph.Table)
			if tbl == nil {
				t.Fatalf("%s references missing table %q", q.Name(), ph.Table)
			}
			if !ph.TableWide && tbl.Column(ph.Column) == nil {
				t.Fatalf("%s references missing column %s.%s", q.Name(), ph.Table, ph.Column)
			}
		}
	}
}

func TestRunQueryCompletes(t *testing.T) {
	k := sim.NewKernel()
	dev := &flatDev{b: make([]byte, 64<<20)}
	db := imdb.New(dev, k, 64<<20, imdb.DefaultCost())
	BuildDataset(db, Scale{TotalBytes: 8 << 20}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	k.Run()
	for _, q := range []QuerySpec{Specs()[0], Specs()[19]} {
		var el sim.Duration
		done := false
		RunQuery(db, k, q, 8<<20, func(e sim.Duration, err error) {
			if err != nil {
				t.Fatalf("%s: %v", q.Name(), err)
			}
			el, done = e, true
		})
		k.Run()
		if !done || el <= 0 {
			t.Fatalf("%s did not complete (elapsed %v)", q.Name(), el)
		}
	}
}

func TestPageTraceWithinDataset(t *testing.T) {
	sc := Scale{TotalBytes: 8 << 20}
	total := DatasetPages(sc)
	for _, opts := range []TraceOptions{TraceOptions{ProbeMultiplier: 1}, BufferTrace()} {
		trace := PageTrace(Specs(), sc, 1, opts)
		if len(trace) == 0 {
			t.Fatal("empty trace")
		}
		for _, p := range trace {
			if p < 0 || p >= total {
				t.Fatalf("page %d outside dataset (%d pages)", p, total)
			}
		}
	}
}

func TestBufferTraceAmplifies(t *testing.T) {
	sc := Scale{TotalBytes: 8 << 20}
	timing := PageTrace(Specs(), sc, 1, TraceOptions{ProbeMultiplier: 1})
	buffer := PageTrace(Specs(), sc, 1, BufferTrace())
	if len(buffer) <= len(timing) {
		t.Fatalf("buffer trace (%d) not larger than timing trace (%d)", len(buffer), len(timing))
	}
}

func TestTraceDeterministic(t *testing.T) {
	sc := Scale{TotalBytes: 4 << 20}
	a := PageTrace(Specs(), sc, 7, BufferTrace())
	b := PageTrace(Specs(), sc, 7, BufferTrace())
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestDatasetScalesWithTotal(t *testing.T) {
	small := DatasetPages(Scale{TotalBytes: 4 << 20})
	big := DatasetPages(Scale{TotalBytes: 16 << 20})
	if big <= small {
		t.Fatal("dataset pages not scaling")
	}
}
