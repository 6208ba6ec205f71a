package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nvdimmc/internal/fault"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/sim"
)

// faultConfig is smallConfig with a tiny cache (so evictions are cheap to
// force) and the fault registry armed.
func faultConfig() Config {
	cfg := smallConfig()
	cfg.CacheBytes = 128 << 10 // ~29 slots after metadata
	cfg.Seed = 0x5EED
	cfg.FaultSeed = 0xFA17
	return cfg
}

// prewriteMedia puts a page on the NVM media directly through the FTL, so a
// subsequent DAX access takes the full CP cachefill path (unwritten pages
// would use the no-CP fast fill).
func prewriteMedia(t *testing.T, s *System, lpn int64, data []byte) {
	t.Helper()
	done := false
	s.FTL.WritePage(lpn, data, func(err error) {
		if err != nil {
			t.Fatalf("prewrite lpn %d: %v", lpn, err)
		}
		done = true
	})
	if err := s.RunUntil(func() bool { return done }, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func loadErrSync(t *testing.T, s *System, off int64, n int) ([]byte, error) {
	t.Helper()
	buf := make([]byte, n)
	var ferr error
	done := false
	s.LoadErr(off, buf, func(err error) { ferr = err; done = true })
	if err := s.RunUntil(func() bool { return done }, 200*sim.Millisecond); err != nil {
		t.Fatalf("load at %d: %v", off, err)
	}
	return buf, ferr
}

func storeErrSync(t *testing.T, s *System, off int64, data []byte) error {
	t.Helper()
	var ferr error
	done := false
	s.StoreErr(off, data, func(err error) { ferr = err; done = true })
	if err := s.RunUntil(func() bool { return done }, 200*sim.Millisecond); err != nil {
		t.Fatalf("store at %d: %v", off, err)
	}
	return ferr
}

// mediaPage reads a logical page straight from the FTL (bypassing the DRAM
// cache) — the arbiter of what is actually persistent.
func mediaPage(t *testing.T, s *System, lpn int64) []byte {
	t.Helper()
	var got []byte
	done := false
	s.FTL.ReadPage(lpn, func(d []byte, err error) {
		if err != nil {
			t.Fatalf("media read lpn %d: %v", lpn, err)
		}
		got = d
		done = true
	})
	if err := s.RunUntil(func() bool { return done }, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFaultMatrixTransient exercises one injected transient fault per
// injection site against the driver's retry machinery: in every case the
// access must still return correct data, the recovery must be visible in the
// error counters, and the driver must remain healthy.
func TestFaultMatrixTransient(t *testing.T) {
	cases := []struct {
		name string
		arm  func(g *fault.Registry)
		// wantCounter names a driver counter that must be non-zero after
		// recovery ("" skips the check).
		wantCounter string
		check       func(t *testing.T, s *System)
	}{
		{
			name:        "cp-ack-drop",
			arm:         func(g *fault.Registry) { g.OnOccurrence(fault.CPAckDrop, 1) },
			wantCounter: nvdc.CtrAckTimeout,
			check: func(t *testing.T, s *System) {
				if got := s.NVMC.Stats().AcksDropped; got != 1 {
					t.Fatalf("AcksDropped = %d, want 1", got)
				}
				if s.Driver.Counters().Get(nvdc.CtrCPReissue) == 0 {
					t.Fatal("ack loss must force a CP re-issue")
				}
			},
		},
		{
			name:        "cp-ack-corrupt",
			arm:         func(g *fault.Registry) { g.OnOccurrence(fault.CPAckCorrupt, 1) },
			wantCounter: nvdc.CtrAckChecksumBad,
			check: func(t *testing.T, s *System) {
				if got := s.NVMC.Stats().AcksCorrupted; got != 1 {
					t.Fatalf("AcksCorrupted = %d, want 1", got)
				}
			},
		},
		{
			name:        "nvmc-firmware-stall",
			arm:         func(g *fault.Registry) { g.OnOccurrence(fault.NVMCFirmwareStall, 1) },
			wantCounter: nvdc.CtrAckTimeout,
			check: func(t *testing.T, s *System) {
				if got := s.NVMC.Stats().FirmwareStalls; got != 1 {
					t.Fatalf("FirmwareStalls = %d, want 1", got)
				}
			},
		},
		{
			name: "nvmc-window-overrun",
			arm:  func(g *fault.Registry) { g.OnOccurrence(fault.NVMCWindowOverrun, 1) },
			check: func(t *testing.T, s *System) {
				if got := s.NVMC.Stats().WindowOverruns; got != 1 {
					t.Fatalf("WindowOverruns = %d, want 1", got)
				}
			},
		},
		{
			// One upset absorbed by the FTL's internal reread plus one more
			// on the reread: the device acks an error and the DRIVER's
			// cachefill retry recovers.
			name:        "nand-read-bitflip-double",
			arm:         func(g *fault.Registry) { g.OnOccurrence(fault.NANDReadBitFlip, 1).Times(2) },
			wantCounter: nvdc.CtrCachefillRetry,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSystem(t, faultConfig())
			want := pattern(0xC3, PageSize)
			prewriteMedia(t, s, 5, want)
			tc.arm(s.Faults)

			got, err := loadErrSync(t, s, 5*PageSize, PageSize)
			if err != nil {
				t.Fatalf("access must survive the transient fault: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("data corrupted across fault recovery")
			}
			if s.Faults.TotalFired() == 0 {
				t.Fatal("fault never fired — test exercises nothing")
			}
			if tc.wantCounter != "" && s.Driver.Counters().Get(tc.wantCounter) == 0 {
				t.Fatalf("counter %q did not record the recovery:\n%v",
					tc.wantCounter, s.Driver.Counters())
			}
			if m := s.Driver.Mode(); m != nvdc.ModeHealthy {
				t.Fatalf("driver mode %v after recoverable fault, want healthy", m)
			}
			if tc.check != nil {
				tc.check(t, s)
			}
			if err := s.CheckHealth(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBusSnoopDropLosesOneWindowOnly(t *testing.T) {
	s := mustSystem(t, faultConfig())
	s.Faults.OnOccurrence(fault.BusSnoopDrop, 1)
	// Idle run: the only CA traffic is the refresh engine, so the dropped
	// snoop is a REF the detector never sees — one lost window.
	s.RunFor(100 * sim.Microsecond)
	if got := s.Channel.SnoopDrops(); got != 1 {
		t.Fatalf("SnoopDrops = %d, want 1", got)
	}
	// The system keeps working: a CP round trip still completes.
	want := pattern(0x11, PageSize)
	prewriteMedia(t, s, 3, want)
	got, err := loadErrSync(t, s, 3*PageSize, PageSize)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("access after snoop drop: err=%v", err)
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

func TestCachefillHardFailQuarantinesAndDegrades(t *testing.T) {
	s := mustSystem(t, faultConfig())
	want := pattern(0x77, PageSize)
	prewriteMedia(t, s, 9, want)
	s.Faults.Always(fault.NANDReadBitFlip)

	_, err := loadErrSync(t, s, 9*PageSize, PageSize)
	if err == nil {
		t.Fatal("persistent uncorrectable reads must surface an error")
	}
	if !errors.Is(err, nvdc.ErrMediaRead) {
		t.Fatalf("err = %v, want ErrMediaRead", err)
	}
	ds := s.Driver.Stats()
	if ds.Mode != nvdc.ModeDegraded {
		t.Fatalf("mode = %v, want degraded", ds.Mode)
	}
	if ds.SlotsQuarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", ds.SlotsQuarantined)
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}

	// Cause clears: reads recover (fresh slot), but the mode stays degraded
	// (forward-only) and every store now writes through to the media.
	s.Faults.Clear(fault.NANDReadBitFlip)
	got, err := loadErrSync(t, s, 9*PageSize, PageSize)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after cause cleared: err=%v", err)
	}
	st := pattern(0x88, PageSize)
	if err := storeErrSync(t, s, 20*PageSize, st); err != nil {
		t.Fatalf("degraded store: %v", err)
	}
	if s.Driver.Counters().Get(nvdc.CtrWriteThrough) == 0 {
		t.Fatal("degraded mode must write acked stores through")
	}
	// The write-through ack is posted; let the NAND program land.
	s.RunFor(sim.Millisecond)
	if !s.FTL.IsMapped(20) {
		t.Fatal("write-through never reached the media")
	}
	if !bytes.Equal(mediaPage(t, s, 20), st) {
		t.Fatal("media copy differs from acked store")
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteThroughFailGoesReadOnly(t *testing.T) {
	cfg := faultConfig()
	cfg.NVMC.AckAfterProgram = true // surface program failures to the driver
	s := mustSystem(t, cfg)

	want := pattern(0x3C, PageSize)
	storeSync(t, s, 4*PageSize, want)
	s.Faults.Always(fault.NANDProgramFail)

	var ferr error
	done := false
	s.Driver.FlushLPN(4, func(err error) { ferr = err; done = true })
	if err := s.RunUntil(func() bool { return done }, 200*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ferr == nil {
		t.Fatal("flush must fail when every program fails")
	}
	if m := s.Driver.Mode(); m != nvdc.ModeReadOnly {
		t.Fatalf("mode = %v, want read-only", m)
	}
	// Acked data is still served from the (intact) DRAM slot.
	got, err := loadErrSync(t, s, 4*PageSize, PageSize)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read-only read of acked data: err=%v", err)
	}
	// Writes are refused with the typed error.
	if err := storeErrSync(t, s, 4*PageSize, want); !errors.Is(err, nvdc.ErrReadOnly) {
		t.Fatalf("store in read-only mode: err=%v, want ErrReadOnly", err)
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackFailRestoresVictim is the acked-data-safety property for the
// eviction path: when the writeback of a dirty victim fails hard, the victim
// mapping is restored (its bytes are still in the DRAM slot), the driver
// goes read-only, and every previously acked page remains readable.
func TestWritebackFailRestoresVictim(t *testing.T) {
	cfg := faultConfig()
	cfg.NVMC.AckAfterProgram = true
	s := mustSystem(t, cfg)

	n := s.Layout.NumSlots
	contents := make(map[int64][]byte, n)
	for i := 0; i < n; i++ {
		lpn := int64(i)
		data := pattern(byte(0x40+i), PageSize)
		storeSync(t, s, lpn*PageSize, data)
		contents[lpn] = data
	}
	s.Faults.Always(fault.NANDProgramFail)

	// One more store: the miss needs an eviction, the eviction needs a
	// writeback, and every NAND program now fails.
	err := storeErrSync(t, s, int64(n)*PageSize, pattern(0xEE, PageSize))
	if err == nil {
		t.Fatal("eviction store must fail when the writeback path is dead")
	}
	if m := s.Driver.Mode(); m != nvdc.ModeReadOnly {
		t.Fatalf("mode = %v, want read-only", m)
	}
	// Every acked page — including the restored victim — still reads back.
	for lpn, want := range contents {
		if !s.Driver.IsResident(lpn) {
			t.Fatalf("acked lpn %d lost residency after writeback failure", lpn)
		}
		got, lerr := loadErrSync(t, s, lpn*PageSize, PageSize)
		if lerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("acked lpn %d unreadable after writeback failure: %v", lpn, lerr)
		}
	}
	// A read miss would need an eviction too: typed refusal, no data loss.
	if _, lerr := loadErrSync(t, s, int64(n+1)*PageSize, PageSize); !errors.Is(lerr, nvdc.ErrReadOnly) {
		t.Fatalf("read-miss in read-only mode: err=%v, want ErrReadOnly", lerr)
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultRunReproducible: two systems built from the same printed seeds
// must produce byte-identical behaviour under probabilistic fault injection.
func TestFaultRunReproducible(t *testing.T) {
	run := func() (string, string) {
		s := mustSystem(t, faultConfig())
		s.Faults.Prob(fault.CPAckDrop, 0.3)
		s.Faults.Prob(fault.NANDReadBitFlip, 0.05)
		for i := int64(0); i < 8; i++ {
			prewriteMedia(t, s, i, pattern(byte(i), PageSize))
		}
		var log []byte
		for i := int64(0); i < 8; i++ {
			got, err := loadErrSync(t, s, i*PageSize, PageSize)
			log = append(log, fmt.Sprintf("lpn %d err=%v sum=%x\n", i, err, got[0]^got[4095])...)
		}
		return s.Faults.String() + string(log), s.Driver.Counters().String()
	}
	log1, ctr1 := run()
	log2, ctr2 := run()
	if log1 != log2 || ctr1 != ctr2 {
		t.Fatalf("same seed, different runs:\n--- run1\n%s%s\n--- run2\n%s%s", log1, ctr1, log2, ctr2)
	}
	t.Logf("replay seed line: %s", log1[:60])
}

// TestPrefillMediaReportsProgramFailure: a NAND program failure during the
// media prefill comes back as the prefill's error instead of being dropped.
// Every program from the prefill's last first-pass program on fails, so
// that write, alone in flight by then, fails through all its remaps while
// every other write lands; half the blocks held back as over-provisioning
// leave room for the remaps.
func TestPrefillMediaReportsProgramFailure(t *testing.T) {
	cfg := faultConfig()
	cfg.FTL.OverProvisionPct = 50
	s := mustSystem(t, cfg)
	s.Faults.OnOccurrence(fault.NANDProgramFail, uint64(s.FTL.LogicalPages())).Times(1 << 30)
	err := s.PrefillMedia()
	if err == nil || !strings.Contains(err.Error(), "remap attempts") {
		t.Fatalf("prefill with its last write's programs failing: err=%v, want the write's program error", err)
	}
}
