package nand

import (
	"bytes"
	"testing"

	"nvdimmc/internal/sim"
)

func newArray(k *sim.Kernel) *Array {
	cfg := DefaultConfig()
	cfg.InitialBadBlockPPM = 0
	cfg.BlocksPerDie = 16
	cfg.PagesPerBlock = 8
	return New(k, cfg)
}

func TestProgramReadRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	addr := PageAddr{Channel: 1, Die: 0, Block: 3, Page: 0}
	want := bytes.Repeat([]byte{0x3C}, PageSize)
	var got []byte
	a.Program(addr, want, func(err error) {
		if err != nil {
			t.Error(err)
			return
		}
		read(a, addr, func(data []byte, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			got = data
		})
	})
	k.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestErasedPageReadsFF(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	var got []byte
	read(a, PageAddr{Block: 1, Page: 2}, func(data []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = data
	})
	k.Run()
	for _, b := range got {
		if b != 0xFF {
			t.Fatalf("erased page byte = %#x, want 0xFF", b)
		}
	}
}

func TestOverwriteWithoutEraseFails(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	addr := PageAddr{Block: 0, Page: 0}
	data := make([]byte, PageSize)
	var second error
	a.Program(addr, data, func(err error) {
		if err != nil {
			t.Error(err)
		}
		a.Program(addr, data, func(err error) { second = err })
	})
	k.Run()
	if second == nil {
		t.Fatal("overwrite without erase accepted")
	}
}

func TestOutOfOrderProgramFails(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	var err0 error
	a.Program(PageAddr{Block: 0, Page: 3}, make([]byte, PageSize), func(err error) { err0 = err })
	k.Run()
	if err0 == nil {
		t.Fatal("out-of-order program accepted")
	}
}

func TestEraseResetsBlock(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	addr := PageAddr{Block: 2, Page: 0}
	data := bytes.Repeat([]byte{7}, PageSize)
	var after []byte
	a.Program(addr, data, func(error) {
		a.Erase(addr, func(err error) {
			if err != nil {
				t.Error(err)
			}
			// Reprogram same page: legal after erase.
			a.Program(addr, data, func(err error) {
				if err != nil {
					t.Error(err)
				}
			})
			read(a, addr, func(d []byte, _ error) { after = d })
		})
	})
	k.Run()
	if a.Erases(addr) != 1 {
		t.Fatalf("erases = %d, want 1", a.Erases(addr))
	}
	if !bytes.Equal(after, data) {
		t.Fatal("reprogram after erase mismatch")
	}
}

func TestBadBlockRejectsProgram(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	addr := PageAddr{Block: 5}
	a.MarkBad(addr)
	if !a.IsBad(addr) {
		t.Fatal("MarkBad did not stick")
	}
	var got error
	a.Program(addr, make([]byte, PageSize), func(err error) { got = err })
	k.Run()
	if got == nil {
		t.Fatal("program to bad block accepted")
	}
}

func TestLatencies(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	cfg := a.Config()
	var readDone, progDone sim.Time
	a.Program(PageAddr{Block: 0, Page: 0}, make([]byte, PageSize), func(error) { progDone = k.Now() })
	k.Run()
	wantProg := sim.Time(0).Add(transferPerPage + cfg.ProgramLatency)
	if progDone != wantProg {
		t.Fatalf("program done at %v, want %v", progDone, wantProg)
	}
	start := k.Now()
	read(a, PageAddr{Block: 0, Page: 0}, func([]byte, error) { readDone = k.Now() })
	k.Run()
	wantRead := readLatency + transferPerPage // sense, then channel transfer
	gotRead := readDone.Sub(start)
	if gotRead != wantRead {
		t.Fatalf("read latency = %v, want %v", gotRead, wantRead)
	}
}

func TestChannelSerializesDies(t *testing.T) {
	// Two dies on one channel: media time overlaps, transfers serialize.
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.InitialBadBlockPPM = 0
	cfg.BlocksPerDie = 4
	cfg.PagesPerBlock = 4
	a := New(k, cfg)
	var done []sim.Time
	read(a, PageAddr{Channel: 0, Die: 0, Block: 0, Page: 0}, func([]byte, error) { done = append(done, k.Now()) })
	read(a, PageAddr{Channel: 0, Die: 1, Block: 0, Page: 0}, func([]byte, error) { done = append(done, k.Now()) })
	k.Run()
	if len(done) != 2 {
		t.Fatalf("completed %d", len(done))
	}
	gap := done[1].Sub(done[0])
	if gap != transferPerPage {
		t.Fatalf("second read trails by %v, want one transfer (%v)", gap, transferPerPage)
	}
}

func TestFactoryBadBlocks(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.InitialBadBlockPPM = 100_000 // 10%
	cfg.BlocksPerDie = 500
	a := New(k, cfg)
	bad := 0
	for c := 0; c < Channels; c++ {
		for d := 0; d < DiesPerChan; d++ {
			for b := 0; b < cfg.BlocksPerDie; b++ {
				if a.IsBad(PageAddr{Channel: c, Die: d, Block: b}) {
					bad++
				}
			}
		}
	}
	total := a.TotalBlocks()
	if bad < total/20 || bad > total/5 {
		t.Fatalf("bad blocks = %d of %d, want ~10%%", bad, total)
	}
}

func TestAddressValidation(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	var err error
	read(a, PageAddr{Channel: 99}, func(_ []byte, e error) { err = e })
	k.Run()
	if err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

func TestWearAccounting(t *testing.T) {
	k := sim.NewKernel()
	a := newArray(k)
	for i := 0; i < 3; i++ {
		a.Erase(PageAddr{Block: 7}, nil)
	}
	a.Erase(PageAddr{Block: 8}, nil)
	k.Run()
	if a.MaxWear() != 3 {
		t.Fatalf("max wear = %d, want 3", a.MaxWear())
	}
	if a.TotalErases() != 4 {
		t.Fatalf("total erases = %d, want 4", a.TotalErases())
	}
}

func TestECCZeroRBERIsClean(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.InitialBadBlockPPM = 0
	cfg.RawBitErrorRate = 0
	cfg.BlocksPerDie = 4
	cfg.PagesPerBlock = 4
	a := New(k, cfg)
	a.Program(PageAddr{}, make([]byte, PageSize), nil)
	for i := 0; i < 50; i++ {
		read(a, PageAddr{}, func(_ []byte, err error) {
			if err != nil {
				t.Error(err)
			}
		})
	}
	k.Run()
	corrected, unc := a.ECCStats()
	if corrected != 0 || unc != 0 {
		t.Fatalf("zero RBER produced ECC activity: %d/%d", corrected, unc)
	}
}

func TestECCCorrectsModerateErrors(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.InitialBadBlockPPM = 0
	cfg.RawBitErrorRate = 1e-5 // lambda ~0.33 per page: frequent singles
	cfg.BlocksPerDie = 4
	cfg.PagesPerBlock = 4
	a := New(k, cfg)
	want := bytes.Repeat([]byte{0x3C}, PageSize)
	a.Program(PageAddr{}, want, nil)
	k.Run()
	for i := 0; i < 500; i++ {
		read(a, PageAddr{}, func(got []byte, err error) {
			if err != nil {
				t.Errorf("uncorrectable at moderate RBER: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Error("ECC-corrected read returned wrong data")
			}
		})
		k.Run()
	}
	corrected, unc := a.ECCStats()
	if corrected == 0 {
		t.Fatal("no corrections at RBER 1e-5 over 500 reads")
	}
	if unc != 0 {
		t.Fatalf("%d uncorrectable at moderate RBER", unc)
	}
}

func TestECCUncorrectableSurfaces(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.InitialBadBlockPPM = 0
	cfg.RawBitErrorRate = 1e-2 // lambda ~328 >> 40 correctable
	cfg.BlocksPerDie = 4
	cfg.PagesPerBlock = 4
	a := New(k, cfg)
	want := bytes.Repeat([]byte{0x55}, PageSize)
	a.Program(PageAddr{}, want, nil)
	k.Run()
	sawErr := false
	read(a, PageAddr{}, func(got []byte, err error) {
		if err == nil {
			t.Fatal("worn-out media read returned no error")
		}
		sawErr = true
		if bytes.Equal(got, want) {
			t.Fatal("uncorrectable read returned pristine data")
		}
	})
	k.Run()
	if !sawErr {
		t.Fatal("read never completed")
	}
	if _, unc := a.ECCStats(); unc == 0 {
		t.Fatal("uncorrectable not counted")
	}
}

// read is Read into a fresh page, for tests that keep the data.
func read(a *Array, addr PageAddr, done func([]byte, error)) {
	buf := make([]byte, PageSize)
	a.Read(addr, buf, func(err error) { done(buf, err) })
}
