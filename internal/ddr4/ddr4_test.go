package ddr4

import (
	"testing"
	"testing/quick"

	"nvdimmc/internal/sim"
)

func TestTCK(t *testing.T) {
	if got := DDR4_1600.TCK(); got != 1250*sim.Picosecond {
		t.Errorf("DDR4-1600 tCK = %v, want 1250ps", got)
	}
	if got := DDR4_2400.TCK(); got != 833*sim.Picosecond {
		t.Errorf("DDR4-2400 tCK = %v, want 833ps", got)
	}
}

func TestPeakBandwidth(t *testing.T) {
	// DDR4-1600 on a 64-bit channel: 1600 MT/s * 8 B = 12.8 GB/s, one
	// 64 B burst every tBL.
	if got := BurstBytes / NewTiming(DDR4_1600).TBL.Seconds(); got != 12.8e9 {
		t.Errorf("DDR4-1600 peak = %v, want 12.8e9", got)
	}
}

func TestStandardTRFC(t *testing.T) {
	if got := Density4Gb.StandardTRFC(); got != 260*sim.Nanosecond {
		t.Errorf("4Gb tRFC = %v, want 260ns", got)
	}
	if got := Density8Gb.StandardTRFC(); got != 350*sim.Nanosecond {
		t.Errorf("8Gb tRFC = %v, want 350ns", got)
	}
}

func TestRefreshBudget(t *testing.T) {
	// 8K refreshes in 64 ms => 7.8125 us; JEDEC quotes 7.8 us.
	per := RefreshWindow / RefreshCommandsPerWindow
	if per < 7800*sim.Nanosecond || per > 7900*sim.Nanosecond {
		t.Errorf("refresh interval from window = %v, want ~7.8us", per)
	}
}

func TestRandomAccessTimeBudget(t *testing.T) {
	// §III-A: tRCD+tCL = 26.64 ns for DDR4-2400 mainstream bin; our 17-cycle
	// bin gives 2*17*0.833ns = 28.3ns — same order. The 5-bit register cap
	// is 51.615 ns; check our model reproduces ~51.6 ns.
	tm := NewTiming(DDR4_2400)
	max := tm.MaxProgrammableAccessTime()
	if max < 51*sim.Nanosecond || max > 52*sim.Nanosecond {
		t.Errorf("max programmable access time = %v, want ~51.6ns", max)
	}
	if nominal := tm.TRCD + tm.TCL; nominal > max {
		t.Errorf("nominal access %v exceeds programmable max %v", nominal, max)
	}
}

func TestTimingValidate(t *testing.T) {
	tm := NewTiming(DDR4_1600)
	if err := tm.Validate(); err != nil {
		t.Fatalf("nominal timing invalid: %v", err)
	}
	bad := tm
	bad.TRFC = tm.TREFI // no host time left
	if err := bad.Validate(); err == nil {
		t.Error("tRFC >= tREFI accepted")
	}
	bad = tm
	bad.TREFI = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tREFI accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, k := range AllCommandKinds {
		got := Decode(Encode(k))
		want := k
		// PREA shares pin encoding with PRE (A10 distinguishes them, which
		// the six snooped pins cannot see); both must decode as a precharge.
		if k == CmdPrechargeAll {
			want = CmdPrecharge
		}
		if got != want {
			t.Errorf("Decode(Encode(%v)) = %v, want %v", k, got, want)
		}
	}
}

func TestIsRefreshExactlyREF(t *testing.T) {
	for _, k := range AllCommandKinds {
		s := Encode(k)
		want := k == CmdRefresh
		if got := IsRefresh(s); got != want {
			t.Errorf("IsRefresh(Encode(%v)) = %v, want %v", k, got, want)
		}
	}
}

// Property: over all 64 possible 6-pin states, IsRefresh matches the
// reference decoder's CmdRefresh verdict — the refresh detector can never
// confuse another command (including SRE/SRX) for REF.
func TestIsRefreshExhaustive(t *testing.T) {
	for bits := 0; bits < 64; bits++ {
		s := CAState{
			CKE:  bits&1 != 0,
			CSn:  bits&2 != 0,
			ACTn: bits&4 != 0,
			RASn: bits&8 != 0,
			CASn: bits&16 != 0,
			WEn:  bits&32 != 0,
		}
		if IsRefresh(s) != (Decode(s) == CmdRefresh) {
			t.Errorf("state %+v: IsRefresh=%v Decode=%v", s, IsRefresh(s), Decode(s))
		}
	}
}

func TestCommandStrings(t *testing.T) {
	c := Command{Kind: CmdActivate, Bank: 3, Row: 100}
	if c.String() != "ACT b3 r100" {
		t.Errorf("String = %q", c.String())
	}
	c = Command{Kind: CmdRead, Bank: 1, Col: 8, AutoPrecharge: true}
	if c.String() != "RDA b1 c8" {
		t.Errorf("String = %q", c.String())
	}
	if CmdRefresh.String() != "REF" {
		t.Errorf("REF String = %q", CmdRefresh.String())
	}
}

// Property: encodings of distinct decodable commands are mutually exclusive,
// the fact §IV-A relies on ("the CA states of all DDR4 commands are mutually
// exclusive").
func TestEncodingsMutuallyExclusive(t *testing.T) {
	seen := map[CAState]CommandKind{}
	for _, k := range AllCommandKinds {
		if k == CmdPrechargeAll { // same pins as PRE by design
			continue
		}
		s := Encode(k)
		if prev, dup := seen[s]; dup {
			t.Errorf("%v and %v share CA encoding %+v", prev, k, s)
		}
		seen[s] = k
	}
}

func TestTimingMonotonicWithGrade(t *testing.T) {
	f := func(raw uint8) bool {
		grades := []SpeedGrade{DDR4_1600, DDR4_1866, DDR4_2133, DDR4_2400, DDR4_2666, DDR4_3200}
		g := grades[int(raw)%len(grades)]
		tm := NewTiming(g)
		return tm.Validate() == nil && tm.TBL == 4*g.TCK()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
