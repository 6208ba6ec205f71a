package numa

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nvdimmc/internal/core"
	"nvdimmc/internal/fault"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// testMember is the shrunken campaign member (1 MB cache, 32x16 NAND,
// program failures surfaced to the driver) — same shape as the pool's
// fault-campaign member so socket-kill faults actually fail front-end ops.
func testMember() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	cfg.NVMC.AckAfterProgram = true
	cfg.Audit = false
	return cfg
}

func newTestFabric(t testing.TB, sockets, workers int, mut ...func(*Config)) *Fabric {
	t.Helper()
	cfg := Config{
		Sockets: sockets,
		Pool: pool.Config{
			Channels:        2,
			DIMMsPerChannel: 1,
			Interleave:      4096,
			Member:          testMember(),
			PrefillPages:    -1,
			// The campaign breaker tuning: misses serialize on a member's
			// driver, so the window must span many epochs to gather samples.
			BreakerWindow:      64,
			BreakerMinSamples:  6,
			BreakerErrRate:     0.4,
			BreakerCooldown:    8,
			BreakerCloseStreak: 4,
		},
		ChunkBytes: 64 << 10,
		Workers:    workers,
		Seed:       21,
	}
	for _, m := range mut {
		m(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fabricTenants builds one socket-affine tenant per socket plus a roaming
// tenant on socket 0 whose footprint spans the whole fabric — guaranteed
// cross-socket traffic.
func fabricTenants(f *Fabric, seed uint64, writeHeavy bool) openloop.Config {
	readPct := 55
	if writeHeavy {
		readPct = 20
	}
	var ts []openloop.Tenant
	for s := 0; s < f.Cfg.Sockets; s++ {
		ts = append(ts, openloop.Tenant{
			Name: fmt.Sprintf("s%d", s), Socket: s, Dist: openloop.Uniform,
			ReadPct: readPct, Weight: 2, Footprint: f.Span(), Offset: int64(s) * f.Span(),
		})
	}
	ts = append(ts, openloop.Tenant{
		Name: "roam", Socket: 0, Dist: openloop.Uniform,
		ReadPct: readPct, Weight: 1, Footprint: f.Capacity(),
	})
	return openloop.Config{Seed: seed, RatePerSec: 1.5e6, Tenants: ts}
}

func runFabric(t *testing.T, f *Fabric, gcfg openloop.Config, count int) Stats {
	t.Helper()
	gen, err := openloop.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.RunOpenLoop(f, gen, count, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	return f.Stats()
}

// snapshot serializes every observable fabric stat; two runs are
// "byte-identical" iff their snapshots match.
func snapshot(s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req=%d/%d failed=%d shed=%d expired=%d throttled=%d late=%d\n",
		s.Completed, s.Submitted, s.Failed, s.Shed, s.Expired, s.Throttled, s.CompletedLate)
	fmt.Fprintf(&b, "writes in=%d ack=%d failed=%d shed=%d expired=%d throttled=%d\n",
		s.WritesIn, s.WritesAcked, s.WritesFailed, s.WritesShed, s.WritesExpired, s.WritesThrottled)
	fmt.Fprintf(&b, "fabric postevac=%d remote=%d rehomed=%d mig=%d/%d/%d epochs=%d\n",
		s.PostEvacSubmissions, s.RemoteRequests, s.ChunksRehomed,
		s.MigPages, s.MigReadMiss, s.MigWriteFail, s.Epochs)
	for _, h := range []struct {
		name string
		h    interface {
			Count() uint64
			Percentile(float64) sim.Duration
		}
	}{{"lat", s.Lat}, {"remote", s.LatRemote}, {"migrate", s.LatMigrate}} {
		fmt.Fprintf(&b, "%s n=%d p50=%v p99=%v p999=%v\n",
			h.name, h.h.Count(), h.h.Percentile(50), h.h.Percentile(99), h.h.Percentile(99.9))
	}
	fmt.Fprintf(&b, "ctr %s\n", s.Ctr.String())
	for i, ss := range s.PerSocket {
		fmt.Fprintf(&b, "sock%d state=%s reason=%q pool req=%d/%d q=%d ev=%d epochs=%d\n",
			i, ss.State, ss.Reason, ss.Pool.Completed, ss.Pool.Submitted,
			ss.Pool.Quarantined, ss.Pool.Evacuated, ss.Pool.Epochs)
	}
	return b.String()
}

// killSocket arms an unbounded NAND program-failure on every member of the
// victim socket: the pool quarantines them all, positions go degraded, and
// the fabric must evacuate.
func killSocket(victim, onset int) func(*Config) {
	return func(c *Config) {
		c.ArmFaults = func(socket, member int, g *fault.Registry) {
			if socket != victim {
				return
			}
			g.OnOccurrence(fault.NANDProgramFail, uint64(onset)).Times(1 << 30)
		}
	}
}

// TestFabricWorkerLookaheadIdentical is the fabric's acceptance gate: the
// same faulted multi-socket run — socket kill, evacuation, migration,
// cross-socket retries — produces byte-identical stats at 1, 2 and 8
// workers, under both lockstep and the lookahead scheduler.
func TestFabricWorkerLookaheadIdentical(t *testing.T) {
	var snaps []string
	var labels []string
	for _, lockstep := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			f := newTestFabric(t, 3, workers, killSocket(1, 1), func(c *Config) {
				c.DisableLookahead = lockstep
			})
			s := runFabric(t, f, fabricTenants(f, 42, true), 300)
			if s.PerSocket[1].State != SocketEvacuated {
				t.Fatalf("workers=%d lockstep=%v: victim state %s, want evacuated",
					workers, lockstep, s.PerSocket[1].State)
			}
			snaps = append(snaps, snapshot(s))
			labels = append(labels, fmt.Sprintf("workers=%d lockstep=%v", workers, lockstep))
		}
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("%s changed output vs %s:\n--- %s ---\n%s--- %s ---\n%s",
				labels[i], labels[0], labels[0], snaps[0], labels[i], snaps[i])
		}
	}
}

// TestFabricEvacuationKill drills into one kill point: the victim drains to
// Evacuated, its chunks re-home, migration moves pages, conservation holds
// (CheckHealth inside runFabric), and the cross-socket retry path actually
// recovered traffic onto survivors.
func TestFabricEvacuationKill(t *testing.T) {
	f := newTestFabric(t, 3, 1, killSocket(1, 1))
	s := runFabric(t, f, fabricTenants(f, 7, true), 400)

	if s.PerSocket[1].State != SocketEvacuated {
		t.Fatalf("victim state %s", s.PerSocket[1].State)
	}
	if s.PerSocket[0].State != SocketUp || s.PerSocket[2].State != SocketUp {
		t.Fatalf("survivors not up: %s / %s", s.PerSocket[0].State, s.PerSocket[2].State)
	}
	if s.ChunksRehomed == 0 {
		t.Fatal("no chunks re-homed")
	}
	if s.MigPages == 0 {
		t.Fatal("no migration pages issued")
	}
	if s.PostEvacSubmissions != 0 {
		t.Fatalf("%d post-evacuation submissions", s.PostEvacSubmissions)
	}
	if got := s.WritesIn - s.WritesAcked - s.WritesFailed - s.WritesShed - s.WritesExpired - s.WritesThrottled; got != 0 {
		t.Fatalf("%d acked writes lost", got)
	}
	if s.Ctr.Get("fab-retry-promoted") == 0 {
		t.Fatal("kill mid-run promoted no cross-socket retries")
	}
	if s.Completed == 0 || float64(s.Completed)/float64(s.Submitted) < 0.5 {
		t.Fatalf("availability collapsed: %d/%d", s.Completed, s.Submitted)
	}
	// The evacuation must show up in the migration-interference histogram:
	// foreground completions landed while the migration ran.
	if s.LatMigrate.Count() == 0 {
		t.Fatal("no foreground completions recorded during migration")
	}

	// With socket probes off the victim is never evacuated, so a piece it
	// fails is retried onto it again, each fabric attempt after the pool's
	// own MaxRetries. Without a deadline the retries exhaust the cap, typed
	// ErrFabricDegraded. Under one, a fabric retry that cannot land in time
	// fails fast as expired: the pool prices its retries with the channel's
	// service EWMA and the fabric with the link latency, so a 1 ms link and
	// an 8 ms deadline leave the pool's retries feasible and the fabric's
	// first one not.
	for _, c := range []struct {
		xlat, deadline sim.Duration
		counter        string
	}{{0, 0, "fab-retry-exhausted"}, {sim.Millisecond, 8 * sim.Millisecond, "fab-retry-infeasible"}} {
		f := newTestFabric(t, 2, 1, killSocket(1, 1), func(cfg *Config) {
			cfg.ProbeEvery = 1 << 20
			if c.xlat > 0 {
				cfg.XLat = c.xlat
			}
		})
		g := fabricTenants(f, 7, true)
		g.Deadline = c.deadline
		s := runFabric(t, f, g, 120)
		if s.Ctr.Get(c.counter) == 0 {
			t.Fatalf("deadline %v: %s = 0", c.deadline, c.counter)
		}
		if c.deadline == 0 && (!errors.Is(s.FirstFailure, ErrFabricDegraded) ||
			!strings.Contains(s.FirstFailure.Error(), fmt.Sprintf("(%d attempts)", pool.MaxRetries+1))) {
			t.Fatalf("exhausted retry failed with %v, want ErrFabricDegraded after %d attempts", s.FirstFailure, pool.MaxRetries+1)
		}
		if c.deadline > 0 && s.Expired == 0 {
			t.Fatalf("infeasible retry expired no request: %+v", s.Ledger)
		}
	}
}

// TestFabricRemoteLatencyFloor: a completed remote request pays the wire
// both ways, so no remote completion can beat two one-way link latencies;
// local completions are charged nothing by the interconnect.
func TestFabricRemoteLatencyFloor(t *testing.T) {
	f := newTestFabric(t, 2, 1)
	s := runFabric(t, f, fabricTenants(f, 11, false), 300)
	if s.RemoteRequests == 0 {
		t.Fatal("roaming tenant produced no remote requests")
	}
	if s.Lat.Count() == 0 || s.LatRemote.Count() == 0 {
		t.Fatalf("latency split empty: local n=%d remote n=%d", s.Lat.Count(), s.LatRemote.Count())
	}
	if got, want := s.LatRemote.Min(), 2*f.Cfg.XLat; got < want {
		t.Fatalf("remote min %v beats the two-way wire floor %v", got, want)
	}
}

// TestFabricLinkDegrade: a scheduled interconnect degradation must inflate
// the remote tail of an otherwise identical seeded run.
func TestFabricLinkDegrade(t *testing.T) {
	base := newTestFabric(t, 2, 1)
	bs := runFabric(t, base, fabricTenants(base, 13, false), 300)

	deg := newTestFabric(t, 2, 1, func(c *Config) {
		c.LinkFaults = []fault.LinkFault{{Epoch: 2, Socket: 1, LatFactor: 64, BWDivide: 8}}
	})
	ds := runFabric(t, deg, fabricTenants(deg, 13, false), 300)

	if ds.Ctr.Get("link-degraded") != 1 {
		t.Fatalf("link fault fired %d times", ds.Ctr.Get("link-degraded"))
	}
	if ds.LatRemote.Max() <= bs.LatRemote.Max() {
		t.Fatalf("degraded remote max %v not above baseline %v", ds.LatRemote.Max(), bs.LatRemote.Max())
	}
	// No evacuation from a slow wire alone: the sockets themselves are fine.
	for i, ss := range ds.PerSocket {
		if ss.State >= SocketEvacuating {
			t.Fatalf("socket %d evacuated on link degrade: %s", i, ss.Reason)
		}
	}
}

// TestFabricNoSurvivorTypedRefusal: with every serving socket condemned,
// submissions fail fast with ErrSocketEvacuated — degraded, never silent —
// and conservation still balances.
func TestFabricNoSurvivorTypedRefusal(t *testing.T) {
	f := newTestFabric(t, 1, 1)
	f.sup.Condemn(0, "test: no survivor")
	if st := SocketState(f.sup.Kids[0].State); st != SocketEvacuated {
		t.Fatalf("no-survivor evacuation state %s, want evacuated", st)
	}
	_, err := f.Submit(openloop.Request{Off: 0, Len: 4096, Write: true})
	if !errors.Is(err, ErrSocketEvacuated) {
		t.Fatalf("submit to dead fabric: %v", err)
	}
	if err := pool.Drain(f); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Failed != 1 || s.WritesFailed != 1 {
		t.Fatalf("refusal not typed-terminal: failed=%d wfailed=%d", s.Failed, s.WritesFailed)
	}
}

// TestFabricDeadlineWireFailFast: when the link transfer alone lands past
// the deadline, the fabric refuses synchronously with the typed deadline
// error instead of burning a pool slot on a dead request.
func TestFabricDeadlineWireFailFast(t *testing.T) {
	f := newTestFabric(t, 2, 1, func(c *Config) {
		c.XLat = sim.Duration(1e9) // 1 ms wire: any tight deadline dies on it
	})
	// Remote: socket 0 submitting into socket 1's span.
	_, err := f.Submit(openloop.Request{
		Socket: 0, Off: f.Span(), Len: 4096, Deadline: 100 * sim.Nanosecond,
	})
	if !errors.Is(err, pool.ErrDeadlineExceeded) {
		t.Fatalf("wire-infeasible deadline: %v", err)
	}
	if f.ctr.Get("expired-on-wire") != 1 {
		t.Fatal("expired-on-wire not counted")
	}
	// The same deadline is fine locally.
	if _, err := f.Submit(openloop.Request{
		Socket: 0, Off: 0, Len: 4096, Deadline: 100 * sim.Microsecond,
	}); err != nil {
		t.Fatalf("local submit: %v", err)
	}
	if err := pool.Drain(f); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

// TestFabricChunkStraddle: a request crossing chunk and socket-span
// boundaries fans out and completes exactly once.
func TestFabricChunkStraddle(t *testing.T) {
	f := newTestFabric(t, 2, 1)
	// Straddles the span boundary: one piece per socket.
	if _, err := f.Submit(openloop.Request{
		Off: f.Span() - 2048, Len: 4096, Write: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Drain(f); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Completed != 1 || s.WritesAcked != 1 {
		t.Fatalf("straddling write: completed=%d acked=%d", s.Completed, s.WritesAcked)
	}
	if got := len(f.Poll(nil, 0)); got != 1 {
		t.Fatalf("Poll returned %d records, want 1", got)
	}
}

func TestFabricSubmitPanicsOutOfRange(t *testing.T) {
	f := newTestFabric(t, 2, 1)
	for _, c := range []struct {
		name string
		off  int64
		n    int
	}{
		{"negative", -1, 4096},
		{"beyond capacity", f.Capacity() - 2048, 4096},
		{"zero length", 0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			f.Submit(openloop.Request{Off: c.off, Len: c.n})
		}()
	}
}

// TestInterconnectQueueing pins the wire model: transfers serialize on a
// directed link's busy horizon, bandwidth sets the wire time, latency adds
// one way, and the local diagonal is free.
func TestInterconnectQueueing(t *testing.T) {
	lat := sim.Duration(100)
	ic := newInterconnect(2, lat, int64(sim.Second)) // 1 byte per ps: tx == bytes
	if got := ic.xfer(0, 0, 1<<20, 42); got != 42 {
		t.Fatalf("local transfer charged: %v", got)
	}
	a := ic.xfer(0, 1, 1000, 0)
	if want := sim.Time(1000).Add(lat); a != want {
		t.Fatalf("first transfer lands %v, want %v", a, want)
	}
	// Second transfer on the same link queues behind the first's wire time.
	b := ic.xfer(0, 1, 1000, 0)
	if want := sim.Time(2000).Add(lat); b != want {
		t.Fatalf("queued transfer lands %v, want %v", b, want)
	}
	// The reverse direction is an independent link.
	r := ic.xfer(1, 0, 1000, 0)
	if want := sim.Time(1000).Add(lat); r != want {
		t.Fatalf("reverse transfer lands %v, want %v", r, want)
	}
	// Degrade: latency x2, bandwidth /2 -> next transfer pays both.
	ic.degrade(1, 2, 2)
	d := ic.xfer(0, 1, 1000, 5000)
	if want := sim.Time(5000 + 2000).Add(2 * lat); d != want {
		t.Fatalf("degraded transfer lands %v, want %v", d, want)
	}
}

// TestFabricSuspectRecovery: a transient burst that the pool absorbs marks
// the socket Suspect, and the clean-probe streak returns it to Up without
// an evacuation.
func TestFabricSuspectRecovery(t *testing.T) {
	f := newTestFabric(t, 2, 1, func(c *Config) {
		c.EvacuateAfterProbes = 1000 // never condemn on streak in this test
		c.ProbeEvery = 2
		// The spare absorbs the member the burst gets quarantined, so no
		// position degrades: a degraded position forces evacuation, which
		// is exactly what this test must NOT reach. The burst's fragment
		// failures stay below pool.QuarantineFragErrs.
		c.Pool.Spares = 1
		c.Pool.Member.NAND.BlocksPerDie = 64
		c.ArmFaults = func(socket, member int, g *fault.Registry) {
			if socket == 1 && member == 0 {
				// A bounded burst of uncorrectable NAND reads. The FTL's
				// read-retry absorbs isolated upsets, so a sustained burst
				// is needed before errors surface to the driver (cachefill
				// retries, typed pool failures, breaker samples) — all
				// probe-delta signals. Then the media heals and the clean
				// streak restores the socket.
				g.OnOccurrence(fault.NANDReadBitFlip, 1).Times(24)
			}
		}
	})
	// Read-heavy traffic pinned to a small window of socket 1 so evicted
	// prefill pages are re-read from NAND — the only path that consults the
	// injected fault — plus light background load on socket 0.
	fp := int64(4 << 20)
	if fp > f.Span() {
		fp = f.Span()
	}
	gcfg := openloop.Config{
		Seed: 17, RatePerSec: 1.5e6,
		Tenants: []openloop.Tenant{
			{Name: "s1rd", Socket: 1, Dist: openloop.Uniform, ReadPct: 100,
				Weight: 3, Footprint: fp, Offset: f.Span()},
			{Name: "s0", Socket: 0, Dist: openloop.Uniform, ReadPct: 50,
				Weight: 1, Footprint: f.Span()},
		},
	}
	s := runFabric(t, f, gcfg, 800)
	if s.Ctr.Get("socket-suspect") == 0 {
		t.Fatal("bounded read-upset burst never marked the socket suspect")
	}
	if s.PerSocket[1].State != SocketUp {
		t.Fatalf("socket 1 state %s after transient, want up (recovered=%d)",
			s.PerSocket[1].State, s.Ctr.Get("socket-recovered"))
	}
	if s.Ctr.Get("socket-recovered") == 0 {
		t.Fatal("suspect never recovered")
	}
	if s.ChunksRehomed != 0 {
		t.Fatalf("transient burst re-homed %d chunks — socket was condemned", s.ChunksRehomed)
	}
}

// TestFabricRequestAllocs: once warm, a request through the fabric
// allocates nothing, whether it stays on one socket or splits across two:
// fabric and pool request records recycle through their free lists, submit
// splits into a fabric-owned buffer, collect drains the sockets'
// completions into another, and the pending maps reuse their buckets.
func TestFabricRequestAllocs(t *testing.T) {
	f := quietFabric(t)
	for _, c := range []struct {
		name string
		off  int64
		want float64
	}{
		{"one socket", 8192, 0},
		{"across sockets", f.Span() - 2048, 0},
	} {
		var recs []pool.Completion
		run := func() {
			f.Submit(openloop.Request{Arrival: f.Now(), Off: c.off, Len: 4096})
			for !f.Quiesced() {
				f.Step()
			}
			recs = f.Poll(recs[:0], 0)
		}
		for i := 0; i < 20; i++ {
			run()
		}
		done := f.Stats().Completed
		if allocs := testing.AllocsPerRun(100, run); allocs > c.want {
			t.Errorf("%s: %v allocs per request, want <= %v", c.name, allocs, c.want)
		}
		if got := f.Stats().Completed - done; got != 101 {
			t.Fatalf("%s: %d requests completed, want 101", c.name, got)
		}
	}
}

// BenchmarkFabricStep times one epoch of a 2-socket fabric of 3-channel
// pools at two workers. Each op is one epoch.
//
// busy, the fabric twin of pool's BenchmarkPoolStep/busy: one
// cache-resident 4 KiB read every epoch from alternating source sockets,
// every fourth one straddling the span boundary into two pieces, one per
// socket. Request records recycle, so it allocates nothing.
//
// idle is the idle-fabric shape and the twin of BenchmarkPoolStep/idle:
// one cache-resident read every 64 epochs, alternating sockets, so the
// socket without work sits parked and each read catches its socket up.
func BenchmarkFabricStep(b *testing.B) {
	b.Run("busy", func(b *testing.B) {
		f := newTestFabric(b, 2, 2, func(c *Config) { c.Pool.Channels = 3 })
		foot := min(f.Socket(0).CachedFootprint(), f.Socket(1).CachedFootprint()) / 4096 * 4096
		var off int64
		epoch := 0
		var recs []pool.Completion
		op := func() {
			r := openloop.Request{Arrival: f.Now(), Socket: epoch % 2, Off: f.Span() - 2048, Len: 4096}
			if epoch%4 != 3 {
				r.Off = int64(r.Socket)*f.Span() + off
				off = (off + 4096) % foot
			}
			if _, err := f.Submit(r); err != nil {
				b.Fatal(err)
			}
			epoch++
			f.Step()
			recs = f.Poll(recs[:0], 0)
		}
		for i := 0; i < 100; i++ {
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	b.Run("idle", func(b *testing.B) {
		f := newTestFabric(b, 2, 2, func(c *Config) { c.Pool.Channels = 3 })
		var foot, off [2]int64
		for s := range foot {
			foot[s] = f.Socket(s).CachedFootprint() / 4096 * 4096
		}
		epoch := 0
		var recs []pool.Completion
		op := func() {
			if epoch%64 == 0 {
				s := epoch / 64 % 2
				f.Submit(openloop.Request{Arrival: f.Now(), Socket: s, Off: int64(s)*f.Span() + off[s], Len: 4096})
				off[s] = (off[s] + 4096) % foot[s] // the next read lands on the next channel
			}
			epoch++
			f.Step()
			recs = f.Poll(recs[:0], 0)
		}
		for i := 0; i < 64*12; i++ {
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}
