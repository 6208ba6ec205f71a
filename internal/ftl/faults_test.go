package ftl

import (
	"bytes"
	"testing"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/nand"
	"nvdimmc/internal/sim"
)

// newFaultyFTL builds an FTL over a NAND array with an armed-but-empty fault
// registry attached.
func newFaultyFTL(t *testing.T, blocksPerDie, pagesPerBlock int) (*sim.Kernel, *FTL, *nand.Array, *fault.Registry) {
	t.Helper()
	k := sim.NewKernel()
	ncfg := nand.DefaultConfig()
	ncfg.InitialBadBlockPPM = 0
	ncfg.BlocksPerDie = blocksPerDie
	ncfg.PagesPerBlock = pagesPerBlock
	ncfg.ProgramLatency = 10 * sim.Microsecond
	ncfg.EraseLatency = 50 * sim.Microsecond
	arr := nand.New(k, ncfg)
	g := fault.NewRegistry(0xF71)
	arr.SetFaults(g)
	f := New(k, arr, DefaultConfig())
	return k, f, arr, g
}

func TestProgramFailRemapsAndRewrites(t *testing.T) {
	k, f, arr, g := newFaultyFTL(t, 16, 8)
	g.Always(fault.NANDProgramFail).Times(1)

	var werr error
	f.WritePage(3, pageOf(33), func(err error) { werr = err })
	k.Run()
	if werr != nil {
		t.Fatalf("write should survive one program failure via remap: %v", werr)
	}
	_, _, _, grownBad := f.Stats()
	if grownBad != 1 {
		t.Fatalf("grownBad = %d, want 1 (failed block retired)", grownBad)
	}
	if _, _, _, pf := arr.Stats(); pf != 1 {
		t.Fatalf("nand programFails = %d, want 1", pf)
	}
	var got []byte
	f.ReadPage(3, func(d []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = d
	})
	k.Run()
	if !bytes.Equal(got, pageOf(33)) {
		t.Fatal("data mismatch after remap-and-rewrite")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProgramFailBoundedRetries(t *testing.T) {
	k, f, _, g := newFaultyFTL(t, 16, 8)
	g.Always(fault.NANDProgramFail)

	var werr error
	f.WritePage(3, pageOf(33), func(err error) { werr = err })
	k.Run()
	if werr == nil {
		t.Fatal("write must fail once remap attempts are exhausted")
	}
	if g.Fired(fault.NANDProgramFail) != maxProgramRetries {
		t.Fatalf("fired %d program faults, want %d (one per remap attempt)",
			g.Fired(fault.NANDProgramFail), maxProgramRetries)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEraseFailMarksBlockBad(t *testing.T) {
	// Overwrite pressure forces GC; the first reclaim erase fails and the
	// block is retired instead of returning to the pool. Data must survive.
	k, f, _, g := newFaultyFTL(t, 8, 4)
	g.OnOccurrence(fault.NANDEraseFail, 1)

	raw := 2 * 2 * 8 * 4
	errs := 0
	for i := 0; i < raw*4; i++ {
		f.WritePage(0, pageOf(int64(i)), func(err error) {
			if err != nil {
				errs++
			}
		})
		k.Run()
	}
	if errs != 0 {
		t.Fatalf("%d writes failed under erase-fail injection", errs)
	}
	if g.Fired(fault.NANDEraseFail) != 1 {
		t.Fatalf("erase fault fired %d times, want 1", g.Fired(fault.NANDEraseFail))
	}
	_, _, _, grownBad := f.Stats()
	if grownBad < 1 {
		t.Fatal("failed erase did not retire the block")
	}
	var got []byte
	f.ReadPage(0, func(d []byte, _ error) { got = d })
	k.Run()
	if !bytes.Equal(got, pageOf(int64(raw*4-1))) {
		t.Fatal("data lost after erase failure")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadBitFlipRetryAtFTL(t *testing.T) {
	// A one-shot uncorrectable read upset: the FTL's internal read retry
	// rereads the page and succeeds.
	k, f, _, g := newFaultyFTL(t, 16, 8)

	var werr error
	f.WritePage(7, pageOf(77), func(err error) { werr = err })
	k.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	g.OnOccurrence(fault.NANDReadBitFlip, 1)

	var got []byte
	var rerr error
	f.ReadPage(7, func(d []byte, err error) { got, rerr = d, err })
	k.Run()
	if rerr != nil {
		t.Fatalf("read should survive a transient upset via retry: %v", rerr)
	}
	if !bytes.Equal(got, pageOf(77)) {
		t.Fatal("data mismatch after read retry")
	}
	if f.ReadRetries() == 0 {
		t.Fatal("expected an ECC-triggered read retry")
	}
}
