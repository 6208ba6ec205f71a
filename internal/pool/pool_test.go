package pool

import (
	"fmt"
	"strings"
	"testing"

	"nvdimmc/internal/core"
	"nvdimmc/internal/workload/openloop"
)

// testMember is a shrunken member system (1 MB cache : 8 MB media, same 1:8
// shape as the default) so pooled tests stay fast enough for -race -short.
func testMember() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	return cfg
}

func newTestPool(t testing.TB, channels, dimms, workers int, interleave int64, mut ...func(*Config)) *Pool {
	t.Helper()
	cfg := Config{
		Channels:        channels,
		DIMMsPerChannel: dimms,
		Interleave:      interleave,
		Member:          testMember(),
		Workers:         workers,
		Seed:            7,
		PrefillPages:    -1,
	}
	for _, m := range mut {
		m(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// snapshot serializes every observable stat; two runs are "byte-identical"
// iff their snapshots match.
func snapshot(s Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req=%d/%d wracked=%d epochs=%d heldpeak=%d\n",
		s.Completed, s.Submitted, s.WritesAcked, s.Epochs, s.HeldPeak)
	fmt.Fprintf(&b, "overload shed=%d expired=%d late=%d wshed=%d wexpired=%d\n",
		s.Shed, s.Expired, s.CompletedLate, s.WritesShed, s.WritesExpired)
	fmt.Fprintf(&b, "lat n=%d mean=%v min=%v max=%v p50=%v p90=%v p99=%v p999=%v\n",
		s.Lat.Count(), s.Lat.Mean(), s.Lat.Min(), s.Lat.Max(),
		s.Lat.Percentile(50), s.Lat.Percentile(90), s.Lat.Percentile(99), s.Lat.Percentile(99.9))
	fmt.Fprintf(&b, "meter ops=%d bytes=%d elapsed=%v bw=%.6f\n",
		s.Meter.Ops(), s.Meter.Bytes(), s.Meter.Elapsed(), s.Meter.BandwidthMBps())
	fmt.Fprintf(&b, "ctr %s\n", s.Ctr.String())
	for i, ch := range s.PerChannel {
		fmt.Fprintf(&b, "ch%d n=%d p99=%v bytes=%d heldHW=%d queueHW=%d svc=%v %s\n",
			i, ch.Lat.Count(), ch.Lat.Percentile(99), ch.Meter.Bytes(),
			ch.HeldHW, ch.QueueHW, ch.ServiceEWMA, ch.Ctr.String())
	}
	return b.String()
}

func mixedTenants(p *Pool, seed uint64, rate float64) openloop.Config {
	foot := p.CachedFootprint()
	return openloop.Config{
		Seed:       seed,
		RatePerSec: rate,
		Tenants: []openloop.Tenant{
			{Name: "kv", Dist: openloop.Zipfian, Weight: 3, ReadPct: 80,
				Footprint: foot / 2},
			{Name: "log", Dist: openloop.Uniform, Weight: 1, ReadPct: -1,
				Footprint: foot / 2, Offset: foot / 2},
		},
	}
}

func runPool(t *testing.T, p *Pool, gcfg openloop.Config, count int) Stats {
	t.Helper()
	gen, err := openloop.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunOpenLoop(p, gen, count, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	return p.Stats()
}

// TestPoolWorkerCountIdentical is the pool's core determinism claim: the
// same pooled workload produces byte-identical stats with 1, 2 and 8 epoch
// workers. It must stay fast enough to run under -race -short, where the
// detector additionally proves the epoch barriers are sound.
func TestPoolWorkerCountIdentical(t *testing.T) {
	var snaps []string
	for _, workers := range []int{1, 2, 8} {
		p := newTestPool(t, 6, 1, workers, 4096)
		s := runPool(t, p, mixedTenants(p, 42, 2e6), 400)
		if s.Completed != 400 {
			t.Fatalf("workers=%d: completed %d of 400", workers, s.Completed)
		}
		snaps = append(snaps, snapshot(s))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("worker count changed output:\n--- workers=1 ---\n%s--- variant %d ---\n%s",
				snaps[0], i, snaps[i])
		}
	}
}

// TestPoolChannelScaling asserts the acceptance floor: saturating read
// bandwidth grows >= 3.5x from 1 to 6 channels at 4 KB interleave.
func TestPoolChannelScaling(t *testing.T) {
	bw := map[int]float64{}
	for _, channels := range []int{1, 6} {
		p := newTestPool(t, channels, 1, 4, 4096)
		gcfg := openloop.Config{
			Seed:       9,
			RatePerSec: 0, // saturating
			Tenants: []openloop.Tenant{
				{Name: "read", Dist: openloop.Uniform, Footprint: p.CachedFootprint()},
			},
		}
		s := runPool(t, p, gcfg, 150*channels)
		bw[channels] = s.Meter.BandwidthMBps()
	}
	if bw[6] < 3.5*bw[1] {
		t.Fatalf("1->6 channel scaling %.0f -> %.0f MB/s = %.2fx, want >= 3.5x",
			bw[1], bw[6], bw[6]/bw[1])
	}
}

// TestPoolBackpressureHotChannel: a tenant hammering a single stripe (which
// the decoder pins to one member, hence one channel) must saturate that
// channel's queue — exercising admission holds — and inflate pool p99
// relative to a balanced run, while every request (including every write)
// still completes and no channel wedges.
func TestPoolBackpressureHotChannel(t *testing.T) {
	tight := func(p *Pool) *Pool {
		p.queueCap, p.window = 8, 4
		return p
	}

	balanced := tight(newTestPool(t, 2, 1, 2, 4096))
	bCfg := openloop.Config{
		Seed: 11, RatePerSec: 0,
		Tenants: []openloop.Tenant{
			{Name: "even", Dist: openloop.Uniform, ReadPct: 80,
				Footprint: balanced.CachedFootprint()},
		},
	}
	bStats := runPool(t, balanced, bCfg, 300)

	hot := tight(newTestPool(t, 2, 1, 2, 4096))
	hCfg := openloop.Config{
		Seed: 11, RatePerSec: 0,
		Tenants: []openloop.Tenant{
			// Weight 1 explicit: a zero weight mixed with nonzero ones is now
			// a typed config error (it used to silently default to 1).
			{Name: "even", Dist: openloop.Uniform, Weight: 1, ReadPct: 80,
				Footprint: hot.CachedFootprint()},
			// One-stripe footprint: every op lands on the same member.
			{Name: "hot", Dist: openloop.Uniform, Weight: 4, ReadPct: -1,
				Footprint: 4096},
		},
	}
	hStats := runPool(t, hot, hCfg, 300)

	if hStats.Ctr.Get("frags-held") == 0 {
		t.Fatal("hot run never exercised admission holds (backpressure untested)")
	}
	if hStats.Completed != 300 || hStats.Submitted != 300 {
		t.Fatalf("hot run dropped requests: %d/%d", hStats.Completed, hStats.Submitted)
	}
	if hp, bp := hStats.Lat.Percentile(99), bStats.Lat.Percentile(99); hp <= bp {
		t.Fatalf("hot-channel p99 %v not above balanced p99 %v", hp, bp)
	}
	// The saturated channel hurts its own tail hardest: find the hot member's
	// channel and compare against the other.
	hm, _ := hot.Dec.Lookup(0)
	hc := hot.channelOf(hm)
	hotP99 := hStats.PerChannel[hc].Lat.Percentile(99)
	coldP99 := hStats.PerChannel[1-hc].Lat.Percentile(99)
	if hotP99 <= coldP99 {
		t.Fatalf("saturated channel p99 %v not above peer %v", hotP99, coldP99)
	}
}

// TestPoolMultiFragmentRequests: ops wider than the stripe split across
// members and complete only when every fragment does.
func TestPoolMultiFragmentRequests(t *testing.T) {
	p := newTestPool(t, 2, 2, 2, 4096) // 4 members
	const count = 120
	gcfg := openloop.Config{
		Seed: 5, RatePerSec: 1e6,
		Tenants: []openloop.Tenant{
			{Name: "wide", Dist: openloop.Uniform, ReadPct: 50, BlockSize: 16384,
				Footprint: p.CachedFootprint() / 16384 * 16384},
		},
	}
	s := runPool(t, p, gcfg, count)
	if s.Completed != count {
		t.Fatalf("completed %d of %d", s.Completed, count)
	}
	// 16 KB ops aligned on a 4 KB interleave: exactly 4 fragments each.
	if got := s.Ctr.Get("frags-completed"); got != 4*count {
		t.Fatalf("fragments completed = %d, want %d", got, 4*count)
	}
	if s.Meter.Bytes() != uint64(count)*16384 {
		t.Fatalf("bytes = %d, want %d", s.Meter.Bytes(), count*16384)
	}
}

// TestPoolDIMMFanout: DIMMsPerChannel multiplies members and capacity.
func TestPoolDIMMFanout(t *testing.T) {
	p := newTestPool(t, 2, 2, 1, 4096)
	if p.Members() != 4 {
		t.Fatalf("members = %d, want 4", p.Members())
	}
	if p.Member(0) == p.Member(3) {
		t.Fatal("member systems not independent")
	}
	single := newTestPool(t, 2, 1, 1, 4096)
	// Pooled capacity is members x the least member capacity (bad blocks vary
	// per seeded member), so doubling the DIMMs doubles capacity to within
	// the bad-block spread.
	if c, want := p.Capacity(), 2*single.Capacity(); c > want || c < want*95/100 {
		t.Fatalf("2-DIMM capacity %d, want ~2x %d", c, single.Capacity())
	}
}

func TestPoolConfigValidation(t *testing.T) {
	if _, err := New(Config{Channels: 0, DIMMsPerChannel: 1, Member: testMember()}); err == nil {
		t.Fatal("zero channels accepted")
	}
	cfg := DefaultConfig()
	cfg.Member = testMember()
	cfg.Interleave = 1000 // not a page multiple
	if _, err := New(cfg); err == nil {
		t.Fatal("unaligned interleave accepted")
	}
}

// TestStepAllocs: an epoch of an idle pool allocates nothing at 2 or 8
// workers, with and without lookahead, and so does a quiet span
// (StepQuiet) over channels that have completed work: the members advance
// on the stepping goroutine, and their refresh chains recycle their records.
// Under lookahead the idle members park, and neither skipping them nor
// catching one up (Member, like dispatch, warps it over the skipped epochs)
// allocates.
func TestStepAllocs(t *testing.T) {
	for _, workers := range []int{2, 8} {
		for _, lockstep := range []bool{false, true} {
			p := newTestPool(t, 2, 1, workers, 4096, func(c *Config) { c.DisableLookahead = lockstep })
			for i := 0; i < 20; i++ {
				p.Step()
			}
			epochs := p.Stats().Epochs
			if allocs := testing.AllocsPerRun(100, p.Step); allocs != 0 {
				t.Errorf("workers=%d lockstep=%v: %v allocs per epoch, want 0", workers, lockstep, allocs)
			}
			if got := p.Stats().Epochs - epochs; got != 101 {
				t.Fatalf("workers=%d lockstep=%v: %d epochs stepped, want 101", workers, lockstep, got)
			}
			if parked := p.sup.Skipped; (parked == 0) != lockstep {
				t.Fatalf("workers=%d lockstep=%v: %d parked member advances", workers, lockstep, parked)
			}
			catchUp := func() {
				for i := 0; i < 4; i++ {
					p.Step()
				}
				p.Member(0)
			}
			if allocs := testing.AllocsPerRun(100, catchUp); allocs != 0 {
				t.Errorf("workers=%d lockstep=%v: %v allocs per parked span and catch-up, want 0", workers, lockstep, allocs)
			}
		}

		const k = 16
		p := newTestPool(t, 2, 1, workers, 4096)
		for off := int64(0); off < 2*4096; off += 4096 {
			if _, err := p.Submit(openloop.Request{Off: off, Len: 4096}); err != nil {
				t.Fatal(err)
			}
		}
		for !p.Quiesced() {
			p.Step()
		}
		p.Poll(nil, 0)
		p.StepQuiet(p.QuietEpochs(k)) // first span grows the fold's state
		epochs := p.Stats().Epochs
		allocs := testing.AllocsPerRun(100, func() {
			if q := p.QuietEpochs(k); q != k {
				t.Fatalf("workers=%d: QuietEpochs(%d) = %d on an idle pool", workers, k, q)
			}
			p.StepQuiet(k)
		})
		if allocs != 0 {
			t.Errorf("workers=%d: %v allocs per quiet span, want 0", workers, allocs)
		}
		if got := p.Stats().Epochs - epochs; got != 101*k {
			t.Fatalf("workers=%d: %d epochs in quiet spans, want %d", workers, got, 101*k)
		}
	}
}

// BenchmarkPoolStep times one epoch of a 6-channel pool at two workers.
//
// busy: each op submits one cache-resident 4 KiB read per channel, steps
// the pool one epoch and drains the completions. This is the per-epoch
// cost of the boundary plus a few hits of member work on every channel;
// request records recycle, so it allocates nothing.
//
// idle: the shape of the idle-pool workload, one cache-resident read on one
// of the six channels every 64 epochs, so most members sit parked and one
// is caught up per read. Each op is one epoch.
func BenchmarkPoolStep(b *testing.B) {
	b.Run("busy", func(b *testing.B) {
		p := newTestPool(b, 6, 1, 2, 4096)
		foot := p.CachedFootprint() / 4096 * 4096
		var done []Completion
		var off int64
		op := func() {
			for c := 0; c < 6; c++ {
				if _, err := p.Submit(openloop.Request{Arrival: p.Elapsed(), Off: off, Len: 4096}); err != nil {
					b.Fatal(err)
				}
				off = (off + 4096) % foot
			}
			p.Step()
			done = p.Poll(done[:0], 0)
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
		p := newTestPool(b, 6, 1, 2, 4096)
		foot := p.CachedFootprint() / 4096 * 4096
		var done []Completion
		var off int64
		epoch := 0
		op := func() {
			if epoch%64 == 0 {
				if _, err := p.Submit(openloop.Request{Arrival: p.Elapsed(), Off: off, Len: 4096}); err != nil {
					b.Fatal(err)
				}
				off = (off + 4096) % foot // the next read lands on the next channel
			}
			epoch++
			p.Step()
			done = p.Poll(done[:0], 0)
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
