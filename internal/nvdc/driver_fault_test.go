// Fault-schedule tests for the driver's CP transport and degradation
// machinery, run against the full simulated machine. The external test
// package lets these import core (core imports nvdc, so in-package tests
// cannot) while the coverage still lands on the driver: the deadline/
// re-issue ack protocol, cachefill retry exhaustion, the forward-only
// Healthy -> Degraded -> ReadOnly lattice and slot quarantine.
package nvdc_test

import (
	"bytes"
	"errors"
	"testing"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/nvdc"
	"nvdimmc/internal/sim"
)

const pageSize = core.PageSize

// rigConfig is a tiny cached system with the fault registry armed and the
// conformance auditor on (the default), so every fault-path test doubles as
// a protocol check.
func rigConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 128 << 10
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	cfg.NAND.ProgramLatency = 20 * sim.Microsecond
	cfg.NAND.EraseLatency = 100 * sim.Microsecond
	cfg.Seed = 0x5EED
	cfg.FaultSeed = 0xFA17
	return cfg
}

func newRig(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// prewrite puts a page on the media through the FTL so the next DAX access
// takes the full CP cachefill path (unwritten pages use the no-CP fast fill).
func prewrite(t *testing.T, s *core.System, lpn int64, data []byte) {
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

func loadSync(t *testing.T, s *core.System, lpn int64) ([]byte, error) {
	t.Helper()
	buf := make([]byte, pageSize)
	var ferr error
	done := false
	s.LoadErr(lpn*pageSize, buf, func(err error) { ferr = err; done = true })
	if err := s.RunUntil(func() bool { return done }, 500*sim.Millisecond); err != nil {
		t.Fatalf("load lpn %d: %v", lpn, err)
	}
	return buf, ferr
}

func storeSync(t *testing.T, s *core.System, lpn int64, data []byte) error {
	t.Helper()
	var ferr error
	done := false
	s.StoreErr(lpn*pageSize, data, func(err error) { ferr = err; done = true })
	if err := s.RunUntil(func() bool { return done }, 500*sim.Millisecond); err != nil {
		t.Fatalf("store lpn %d: %v", lpn, err)
	}
	return ferr
}

func fill(n int, b byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b ^ byte(i)
	}
	return p
}

// TestAckTransportRecovery is the deadline/re-issue protocol under one
// injected transport fault per case: the access must succeed, the recovery
// must show in the named counters, and the driver must stay healthy.
func TestAckTransportRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(g *fault.Registry)
		want []string // counters that must be nonzero after recovery
	}{
		{
			name: "ack-drop-deadline-reissue",
			arm:  func(g *fault.Registry) { g.OnOccurrence(fault.CPAckDrop, 1) },
			want: []string{nvdc.CtrAckTimeout, nvdc.CtrCPReissue},
		},
		{
			name: "ack-corrupt-checksum-reissue",
			arm:  func(g *fault.Registry) { g.OnOccurrence(fault.CPAckCorrupt, 1) },
			want: []string{nvdc.CtrAckChecksumBad, nvdc.CtrAckTimeout},
		},
		{
			name: "double-drop-two-reissues",
			arm:  func(g *fault.Registry) { g.OnOccurrence(fault.CPAckDrop, 1).Times(2) },
			want: []string{nvdc.CtrAckTimeout, nvdc.CtrCPReissue},
		},
		{
			name: "read-upset-cachefill-retry",
			arm:  func(g *fault.Registry) { g.OnOccurrence(fault.NANDReadBitFlip, 1).Times(2) },
			want: []string{nvdc.CtrCachefillRetry},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newRig(t, rigConfig())
			want := fill(pageSize, 0xA5)
			prewrite(t, s, 7, want)
			tc.arm(s.Faults)
			got, err := loadSync(t, s, 7)
			if err != nil {
				t.Fatalf("access must survive the transient fault: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("data corrupted across recovery")
			}
			ctr := s.Driver.Counters()
			for _, name := range tc.want {
				if ctr.Get(name) == 0 {
					t.Fatalf("counter %q did not record the recovery:\n%v", name, ctr)
				}
			}
			if m := s.Driver.Mode(); m != nvdc.ModeHealthy {
				t.Fatalf("mode = %v after recoverable fault", m)
			}
			if err := s.CheckHealth(); err != nil {
				t.Fatalf("recovered faulted run must be healthy: %v", err)
			}
		})
	}
}

// TestCPRetriesExhausted drops every ack: each cachefill attempt must burn
// exactly cpRetries issues before its CPTimeoutError, the driver must retry
// the fill cachefillRetries times, then quarantine the slot and degrade.
func TestCPRetriesExhausted(t *testing.T) {
	s := newRig(t, rigConfig())
	prewrite(t, s, 3, fill(pageSize, 0x42))
	s.Faults.Always(fault.CPAckDrop)

	_, err := loadSync(t, s, 3)
	if err == nil {
		t.Fatal("access must fail when no ack ever arrives")
	}
	var te *nvdc.CPTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want CPTimeoutError", err)
	}
	// The driver issues a CP command at most 4 times and retries a failed
	// cachefill at most 3 times.
	const cpRetries, cachefillRetries = 4, 3
	if te.Attempts != cpRetries {
		t.Fatalf("Attempts = %d, want CPRetries = %d", te.Attempts, cpRetries)
	}
	ctr := s.Driver.Counters()
	wantReissues := uint64(cachefillRetries * (cpRetries - 1))
	if got := ctr.Get(nvdc.CtrCPReissue); got != wantReissues {
		t.Fatalf("CtrCPReissue = %d, want %d (%d fills x %d re-issues)",
			got, wantReissues, cachefillRetries, cpRetries-1)
	}
	if got := ctr.Get(nvdc.CtrAckTimeout); got != uint64(cachefillRetries*cpRetries) {
		t.Fatalf("CtrAckTimeout = %d, want %d", got, cachefillRetries*cpRetries)
	}
	if s.Driver.Mode() != nvdc.ModeDegraded {
		t.Fatalf("mode = %v, want degraded", s.Driver.Mode())
	}
	if q := s.Driver.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantined = %v, want one slot", q)
	}
}

// TestDegradationLattice walks Healthy -> Degraded -> ReadOnly through real
// failures and checks each state's contract, including that the lattice
// never moves backward.
func TestDegradationLattice(t *testing.T) {
	cfg := rigConfig()
	cfg.NVMC.AckAfterProgram = true // surface program failures to the driver
	s := newRig(t, cfg)

	// Healthy -> Degraded: uncorrectable reads exhaust the fill retries.
	prewrite(t, s, 9, fill(pageSize, 0x77))
	s.Faults.Always(fault.NANDReadBitFlip)
	if _, err := loadSync(t, s, 9); !errors.Is(err, nvdc.ErrMediaRead) {
		t.Fatalf("err = %v, want ErrMediaRead", err)
	}
	s.Faults.Clear(fault.NANDReadBitFlip)
	ds := s.Driver.Stats()
	if ds.Mode != nvdc.ModeDegraded || ds.SlotsQuarantined != 1 {
		t.Fatalf("after hard fill failure: mode=%v quarantined=%d", ds.Mode, ds.SlotsQuarantined)
	}
	if ctr := s.Driver.Counters(); ctr.Get(nvdc.CtrCachefillFail) != 1 ||
		ctr.Get(nvdc.CtrSlotQuarantined) != 1 || ctr.Get(nvdc.CtrModeDegraded) != 1 {
		t.Fatalf("degradation counters wrong:\n%v", ctr)
	}

	// Degraded contract: stores still work and write through to the media.
	if err := storeSync(t, s, 11, fill(pageSize, 0x11)); err != nil {
		t.Fatalf("degraded store: %v", err)
	}
	if s.Driver.Counters().Get(nvdc.CtrWriteThrough) == 0 {
		t.Fatal("degraded mode must write acked stores through")
	}

	// Degraded -> ReadOnly: a write-through hits a dead program path.
	s.Faults.Always(fault.NANDProgramFail)
	if err := storeSync(t, s, 12, fill(pageSize, 0x12)); err == nil {
		t.Fatal("store must fail when its write-through cannot persist")
	}
	if s.Driver.Mode() != nvdc.ModeReadOnly {
		t.Fatalf("mode = %v, want read-only", s.Driver.Mode())
	}
	if s.Driver.Counters().Get(nvdc.CtrWritebackFail) == 0 {
		t.Fatal("CtrWritebackFail did not record the dead program path")
	}
	s.Faults.Clear(fault.NANDProgramFail)

	// ReadOnly contract: writes refused with the typed error, resident data
	// still readable, and the mode never heals backward.
	if err := storeSync(t, s, 11, fill(pageSize, 0x13)); !errors.Is(err, nvdc.ErrReadOnly) {
		t.Fatalf("read-only store err = %v, want ErrReadOnly", err)
	}
	got, err := loadSync(t, s, 11)
	if err != nil || !bytes.Equal(got, fill(pageSize, 0x11)) {
		t.Fatalf("read-only read of acked data: %v", err)
	}
	if s.Driver.Mode() != nvdc.ModeReadOnly {
		t.Fatal("mode healed backward")
	}
}

// TestReadOnlyMissNeedsEviction fills the cache, forces read-only, and
// checks a miss that would need an eviction is refused (free-slot misses
// still work: resident data is all the driver can safely grow).
func TestReadOnlyMissNeedsEviction(t *testing.T) {
	cfg := rigConfig()
	cfg.NVMC.AckAfterProgram = true
	s := newRig(t, cfg)

	n := s.Layout.NumSlots
	for i := 0; i < n; i++ {
		if err := storeSync(t, s, int64(i), fill(pageSize, byte(0x40+i))); err != nil {
			t.Fatalf("prefill store %d: %v", i, err)
		}
	}
	s.Faults.Always(fault.NANDProgramFail)
	// The eviction writeback dies -> read-only, victim mapping restored.
	if err := storeSync(t, s, int64(n), fill(pageSize, 0xEE)); err == nil {
		t.Fatal("eviction store must fail with the writeback path dead")
	}
	if s.Driver.Mode() != nvdc.ModeReadOnly {
		t.Fatalf("mode = %v, want read-only", s.Driver.Mode())
	}
	for i := 0; i < n; i++ {
		if !s.Driver.IsResident(int64(i)) {
			t.Fatalf("acked lpn %d lost residency", i)
		}
	}
	if _, err := loadSync(t, s, int64(n+1)); !errors.Is(err, nvdc.ErrReadOnly) {
		t.Fatalf("read-miss needing eviction: err = %v, want ErrReadOnly", err)
	}
}

// TestFlushLPN covers the msync entry points: non-resident and clean slots
// complete immediately with no CP traffic; a dirty slot writes through and
// comes back clean.
func TestFlushLPN(t *testing.T) {
	s := newRig(t, rigConfig())

	flush := func(lpn int64) error {
		var ferr error
		done := false
		s.Driver.FlushLPN(lpn, func(err error) { ferr = err; done = true })
		if err := s.RunUntil(func() bool { return done }, 500*sim.Millisecond); err != nil {
			t.Fatalf("flush lpn %d: %v", lpn, err)
		}
		return ferr
	}

	if err := flush(30); err != nil {
		t.Fatalf("non-resident flush: %v", err)
	}
	if wb := s.Driver.Stats().Writebacks; wb != 0 {
		t.Fatalf("non-resident flush moved data: %d writebacks", wb)
	}

	data := fill(pageSize, 0x5A)
	if err := storeSync(t, s, 5, data); err != nil {
		t.Fatal(err)
	}
	if err := flush(5); err != nil {
		t.Fatalf("dirty flush: %v", err)
	}
	if s.Driver.Counters().Get(nvdc.CtrWriteThrough) != 1 {
		t.Fatal("dirty flush must count one write-through")
	}
	s.RunFor(sim.Millisecond) // let the NAND program land
	if !s.FTL.IsMapped(5) {
		t.Fatal("flush never reached the media")
	}

	// Now clean: a second flush is a no-op.
	before := s.Driver.Stats().Writebacks
	if err := flush(5); err != nil {
		t.Fatalf("clean flush: %v", err)
	}
	if s.Driver.Stats().Writebacks != before {
		t.Fatal("clean flush issued a writeback")
	}
	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

// TestHaltFreezesDriver checks the power-fail freeze: a fault started
// before the halt never completes, new faults are dropped, and no error
// counters move against the dead host.
func TestHaltFreezesDriver(t *testing.T) {
	s := newRig(t, rigConfig())
	prewrite(t, s, 2, fill(pageSize, 0x22))

	completed := false
	s.Driver.FaultE(2, false, func(slot int, err error) { completed = true })
	s.Driver.Halt()
	s.RunFor(50 * sim.Millisecond)
	if completed {
		t.Fatal("in-flight fault completed after the halt")
	}
	s.Driver.FaultE(2, false, func(slot int, err error) { completed = true })
	s.RunFor(10 * sim.Millisecond)
	if completed {
		t.Fatal("new fault ran on a halted driver")
	}
	ctr := s.Driver.Counters()
	for _, name := range nvdc.ErrorCounterNames() {
		if ctr.Get(name) != 0 {
			t.Fatalf("halted driver moved error counter %q:\n%v", name, ctr)
		}
	}
}

// TestErrorEventsMatchesHealth: the ErrorEvents accessor the pool's probes
// read, cached against the counters' change count, equals the fresh sum in
// Health().ErrorEvents after every injected error kind — ack drop, ack
// corruption, a read upset the fill retries through, an exhausted CP that
// quarantines a slot and degrades, a dead program path that goes
// read-only — and after a direct bump of each error counter alone.
func TestErrorEventsMatchesHealth(t *testing.T) {
	cfg := rigConfig()
	cfg.NVMC.AckAfterProgram = true // surface program failures to the driver
	s := newRig(t, cfg)
	for lpn := int64(1); lpn <= 5; lpn++ {
		prewrite(t, s, lpn, fill(pageSize, byte(lpn)))
	}
	var last uint64
	check := func(step string) {
		t.Helper()
		got, want := s.Driver.ErrorEvents(), s.Driver.Health().ErrorEvents
		if got != want || got <= last {
			t.Fatalf("%s: ErrorEvents() = %d, Health().ErrorEvents = %d, want equal and above %d",
				step, got, want, last)
		}
		last = got
	}
	if n := s.Driver.ErrorEvents(); n != 0 || s.Driver.Health().ErrorEvents != 0 {
		t.Fatalf("fresh driver: ErrorEvents() = %d, Health().ErrorEvents = %d", n, s.Driver.Health().ErrorEvents)
	}
	for _, c := range []struct {
		name  string
		site  fault.Site
		times uint64
		lpn   int64
	}{
		{"ack drop", fault.CPAckDrop, 1, 1},
		{"ack corrupt", fault.CPAckCorrupt, 1, 2},
		{"read upset", fault.NANDReadBitFlip, 2, 3},
	} {
		s.Faults.Always(c.site).Times(c.times)
		if _, err := loadSync(t, s, c.lpn); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s.Faults.Clear(c.site)
		check(c.name)
	}
	s.Faults.Always(fault.CPAckDrop)
	if _, err := loadSync(t, s, 4); err == nil {
		t.Fatal("access must fail when no ack ever arrives")
	}
	s.Faults.Clear(fault.CPAckDrop)
	check("exhausted CP")
	s.Faults.Always(fault.NANDProgramFail)
	if err := storeSync(t, s, 5, fill(pageSize, 0x55)); err == nil {
		t.Fatal("store must fail when its write-through cannot persist")
	}
	s.Faults.Clear(fault.NANDProgramFail)
	if s.Driver.Mode() != nvdc.ModeReadOnly {
		t.Fatalf("mode = %v, want read-only", s.Driver.Mode())
	}
	check("dead program path")
	for _, name := range nvdc.ErrorCounterNames() {
		s.Driver.Counters().Inc(name)
		check(name)
	}
}

// TestCPQueueDepthPipelines runs concurrent misses across two mailbox slots
// (the §VII-C item-2 configuration) and under an ack drop on each slot.
func TestCPQueueDepthPipelines(t *testing.T) {
	cfg := rigConfig()
	cfg.Driver.CPQueueDepth = 2
	cfg.NVMC.CommandDepth = 2
	s := newRig(t, cfg)
	for i := int64(0); i < 4; i++ {
		prewrite(t, s, i, fill(pageSize, byte(i)))
	}
	s.Faults.OnOccurrence(fault.CPAckDrop, 2).Times(2)

	pending := 4
	var firstErr error
	for i := int64(0); i < 4; i++ {
		s.Driver.FaultE(i, false, func(slot int, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			pending--
		})
	}
	if err := s.RunUntil(func() bool { return pending == 0 }, 500*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if firstErr != nil {
		t.Fatalf("pipelined misses failed: %v", firstErr)
	}
	for i := int64(0); i < 4; i++ {
		if !s.Driver.IsResident(i) {
			t.Fatalf("lpn %d not resident after pipelined fill", i)
		}
	}
	if s.Driver.Counters().Get(nvdc.CtrCPReissue) == 0 {
		t.Fatal("dropped acks on the pipelined slots were never re-issued")
	}
}

// TestModeAndErrorStrings pins the human-facing surfaces: mode names, the
// CP timeout message, and the error-counter catalog (every Ctr constant
// except the legitimately-ambient write-through counter).
func TestModeAndErrorStrings(t *testing.T) {
	for m, want := range map[nvdc.Mode]string{
		nvdc.ModeHealthy:  "healthy",
		nvdc.ModeDegraded: "degraded",
		nvdc.ModeReadOnly: "read-only",
		nvdc.Mode(9):      "Mode(9)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
	e := &nvdc.CPTimeoutError{Opcode: 2, Slot: 1, Attempts: 4}
	if msg := e.Error(); !bytes.Contains([]byte(msg), []byte("no valid ack after 4 attempts")) {
		t.Errorf("CPTimeoutError message: %q", msg)
	}
	names := map[string]bool{}
	for _, n := range nvdc.ErrorCounterNames() {
		names[n] = true
	}
	for _, n := range []string{
		nvdc.CtrAckTimeout, nvdc.CtrAckChecksumBad, nvdc.CtrCPReissue,
		nvdc.CtrCachefillRetry, nvdc.CtrCachefillFail, nvdc.CtrWritebackFail,
		nvdc.CtrSlotQuarantined, nvdc.CtrModeDegraded, nvdc.CtrModeReadOnly,
		nvdc.CtrFaultFailed,
	} {
		if !names[n] {
			t.Errorf("ErrorCounterNames missing %q", n)
		}
	}
	if names[nvdc.CtrWriteThrough] {
		t.Error("CtrWriteThrough must not be an error-only counter (msync uses it)")
	}
}
