package openloop

import (
	"errors"
	"math"
	"testing"

	"nvdimmc/internal/sim"
)

func twoTenants() Config {
	return Config{
		Seed:       42,
		RatePerSec: 1e6,
		Tenants: []Tenant{
			{Name: "zipf", Dist: Zipfian, Weight: 3, Footprint: 1 << 22, ReadPct: 80},
			{Name: "uni", Dist: Uniform, Weight: 1, Footprint: 1 << 22, ReadPct: -1},
		},
	}
}

// TestDeterminismUnderSeed: two generators with the same seed emit identical
// streams; a different seed diverges.
func TestDeterminismUnderSeed(t *testing.T) {
	a, err := New(twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("request %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	cfg := twoTenants()
	cfg.Seed = 43
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	aa, _ := New(twoTenants())
	for i := 0; i < 100; i++ {
		if aa.Next() == c.Next() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds produced %d/100 identical requests", same)
	}
}

// TestZipfianSkew: the top 1% of blocks must receive the analytic zipf mass
// within tolerance, and the uniform tenant must show no such skew.
func TestZipfianSkew(t *testing.T) {
	const blocks = 10000
	cfg := Config{
		Seed:       7,
		RatePerSec: 1e6,
		Tenants: []Tenant{
			{Dist: Zipfian, Theta: 0.99, Footprint: blocks * 4096},
		},
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 200000
	counts := make([]int, blocks)
	for i := 0; i < draws; i++ {
		counts[g.Next().Off/4096]++
	}
	topK := int64(blocks / 100) // top 1% of ranks (the generator's hot head)
	hot := 0
	for i := int64(0); i < topK; i++ {
		hot += counts[i]
	}
	got := float64(hot) / draws
	want := TopMass(blocks, topK, 0.99)
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("top-1%% mass = %.3f, want %.3f +/- 15%%", got, want)
	}
	// Sanity on the analytic reference itself: zipf(0.99) over 10k items
	// concentrates roughly half its mass in the top 1%.
	if want < 0.3 || want > 0.7 {
		t.Fatalf("analytic top-1%% mass = %.3f, outside sane zipf range", want)
	}

	// Uniform control: top 1% of blocks get ~1% of draws.
	ucfg := Config{Seed: 7, RatePerSec: 1e6,
		Tenants: []Tenant{{Dist: Uniform, Footprint: blocks * 4096}}}
	ug, err := New(ucfg)
	if err != nil {
		t.Fatal(err)
	}
	uhot := 0
	for i := 0; i < draws; i++ {
		if ug.Next().Off/4096 < topK {
			uhot++
		}
	}
	if frac := float64(uhot) / draws; frac > 0.02 {
		t.Fatalf("uniform top-1%% mass = %.3f, want ~0.01", frac)
	}
}

// TestArrivalRateAndMonotonicity: mean interarrival tracks 1/rate and
// arrivals are strictly increasing.
func TestArrivalRateAndMonotonicity(t *testing.T) {
	g, err := New(twoTenants()) // 1M ops/s -> 1 us mean spacing
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	var last sim.Duration
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Arrival <= last {
			t.Fatalf("arrival %d not increasing: %v after %v", i, r.Arrival, last)
		}
		last = r.Arrival
	}
	mean := float64(last) / n
	if mean < 0.9*float64(sim.Microsecond) || mean > 1.1*float64(sim.Microsecond) {
		t.Fatalf("mean interarrival = %.0f ps, want ~1us", mean)
	}

	// Saturating mode: fixed 1 ns spacing.
	cfg := twoTenants()
	cfg.RatePerSec = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := s.Next(), s.Next()
	if r2.Arrival-r1.Arrival != sim.Nanosecond {
		t.Fatalf("saturating spacing = %v, want 1ns", r2.Arrival-r1.Arrival)
	}
}

// TestTenantWeightsAndOpMix: arrival shares track weights (3:1) and each
// tenant's write fraction tracks its ReadPct.
func TestTenantWeightsAndOpMix(t *testing.T) {
	g, err := New(twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	const n = 40000
	var perTenant [2]int
	var writes [2]int
	for i := 0; i < n; i++ {
		r := g.Next()
		perTenant[r.Tenant]++
		if r.Write {
			writes[r.Tenant]++
		}
		if r.Len != 4096 {
			t.Fatalf("block size = %d", r.Len)
		}
		if r.Off < 0 || r.Off+int64(r.Len) > 1<<22 {
			t.Fatalf("offset %d outside tenant footprint", r.Off)
		}
	}
	if share := float64(perTenant[0]) / n; share < 0.70 || share > 0.80 {
		t.Fatalf("tenant 0 share = %.3f, want ~0.75", share)
	}
	// Tenant 0: ReadPct 80 -> ~20% writes. Tenant 1: write-only.
	if frac := float64(writes[0]) / float64(perTenant[0]); frac < 0.15 || frac > 0.25 {
		t.Fatalf("tenant 0 write share = %.3f, want ~0.20", frac)
	}
	if writes[1] != perTenant[1] {
		t.Fatalf("write-only tenant issued %d/%d writes", writes[1], perTenant[1])
	}
}

// TestConfigValidation: bad configs are rejected.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no tenants accepted")
	}
	if _, err := New(Config{Tenants: []Tenant{{Footprint: 100, BlockSize: 4096}}}); err == nil {
		t.Fatal("footprint < block accepted")
	}
	if _, err := New(Config{Tenants: []Tenant{{Footprint: 1 << 20, ReadPct: 150}}}); err == nil {
		t.Fatal("read pct > 100 accepted")
	}
	if _, err := New(Config{Tenants: []Tenant{{Footprint: 1 << 20, Dist: Zipfian, Theta: 1.5}}}); err == nil {
		t.Fatal("theta >= 1 accepted")
	}
	if _, err := New(Config{Deadline: -1, Tenants: []Tenant{{Footprint: 1 << 20}}}); err == nil {
		t.Fatal("negative deadline accepted")
	}
	if _, err := New(Config{RatePerSec: -1, Tenants: []Tenant{{Footprint: 1 << 20}}}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := New(Config{RatePerSec: math.NaN(), Tenants: []Tenant{{Footprint: 1 << 20}}}); err == nil {
		t.Fatal("NaN rate accepted")
	}
	if _, err := New(Config{Tenants: []Tenant{{Footprint: 1 << 20, Weight: math.Inf(1)}}}); err == nil {
		t.Fatal("infinite weight accepted")
	}
}

// TestWeightValidationTyped: the degenerate weight configs are rejected with
// the typed sentinels, and the legal zero-weight forms still default.
func TestWeightValidationTyped(t *testing.T) {
	foot := int64(1 << 20)
	cases := []struct {
		name    string
		tenants []Tenant
		want    error
	}{
		{"negative weight", []Tenant{{Footprint: foot, Weight: -1}}, ErrTenantWeight},
		{"NaN weight", []Tenant{{Footprint: foot, Weight: math.NaN()}}, ErrTenantWeight},
		{"Inf weight", []Tenant{{Footprint: foot, Weight: math.Inf(1)}}, ErrTenantWeight},
		{"zero mixed with nonzero", []Tenant{
			{Footprint: foot},
			{Footprint: foot, Weight: 4},
		}, ErrTenantWeight},
		{"sum overflows to Inf", []Tenant{
			{Footprint: foot, Weight: 1e308},
			{Footprint: foot, Weight: 1e308},
		}, ErrWeightSum},
		{"negative QoS weight", []Tenant{{Footprint: foot, QoSWeight: -2}}, ErrTenantQoS},
		{"NaN limit", []Tenant{{Footprint: foot, LimitPerSec: math.NaN()}}, ErrTenantQoS},
		{"negative limit", []Tenant{{Footprint: foot, LimitPerSec: -5}}, ErrTenantQoS},
		{"negative burst", []Tenant{{Footprint: foot, Burst: -1}}, ErrTenantQoS},
		{"negative SLO", []Tenant{{Footprint: foot, SLOP99: -sim.Microsecond}}, ErrTenantQoS},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(Config{Tenants: c.tenants})
			if err == nil {
				t.Fatalf("%s accepted", c.name)
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("%s: error %v not typed %v", c.name, err, c.want)
			}
		})
	}

	// All-zero weights stay legal: equal shares.
	g, err := New(Config{Tenants: []Tenant{
		{Footprint: foot}, {Footprint: foot}, {Footprint: foot},
	}})
	if err != nil {
		t.Fatalf("all-zero weights rejected: %v", err)
	}
	for i, c := range g.cum {
		want := float64(i+1) / 3
		if math.Abs(c-want) > 1e-9 {
			t.Fatalf("equal-share cum[%d] = %v, want %v", i, c, want)
		}
	}
	// Explicit all-nonzero weights normalize as before.
	if _, err := New(Config{Tenants: []Tenant{
		{Footprint: foot, Weight: 3}, {Footprint: foot, Weight: 1},
	}}); err != nil {
		t.Fatalf("weighted mix rejected: %v", err)
	}
}

// TestDeadlineStamping: a configured budget reaches every emitted request
// unchanged; zero leaves requests undeadlined.
func TestDeadlineStamping(t *testing.T) {
	cfg := twoTenants()
	cfg.Deadline = 250 * sim.Microsecond
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if r := g.Next(); r.Deadline != 250*sim.Microsecond {
			t.Fatalf("request %d deadline %v, want 250us", i, r.Deadline)
		}
	}
	g, err = New(twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if r := g.Next(); r.Deadline != 0 {
			t.Fatalf("request %d deadline %v, want none", i, r.Deadline)
		}
	}
}

// TestCaptureHook: the capture hook sees exactly the emitted stream, in
// order, without perturbing it — a hooked generator and a bare one with the
// same seed stay identical.
func TestCaptureHook(t *testing.T) {
	bare, err := New(twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := New(twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	var captured []Request
	hooked.SetCapture(func(r Request) { captured = append(captured, r) })
	for i := 0; i < 200; i++ {
		want := bare.Next()
		got := hooked.Next()
		if got != want {
			t.Fatalf("request %d: hook perturbed the stream: %+v vs %+v", i, got, want)
		}
		if captured[i] != want {
			t.Fatalf("request %d: captured %+v, emitted %+v", i, captured[i], want)
		}
	}
	hooked.SetCapture(nil)
	hooked.Next()
	if len(captured) != 200 {
		t.Fatalf("hook ran after removal: %d records", len(captured))
	}
}

// TestSocketStamping: a tenant's home socket rides on every request it
// emits, without perturbing any RNG draw (the stamp happens after all
// draws), and negative sockets are rejected at validation.
func TestSocketStamping(t *testing.T) {
	base, err := New(twoTenants())
	if err != nil {
		t.Fatal(err)
	}
	cfg := twoTenants()
	cfg.Tenants[1].Socket = 2
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		want, got := base.Next(), g.Next()
		wantSock := 0
		if got.Tenant == 1 {
			wantSock = 2
		}
		if got.Socket != wantSock {
			t.Fatalf("request %d: tenant %d stamped socket %d, want %d", i, got.Tenant, got.Socket, wantSock)
		}
		got.Socket = want.Socket
		if got != want {
			t.Fatalf("request %d: socket stamping perturbed the stream: %+v vs %+v", i, got, want)
		}
	}

	bad := twoTenants()
	bad.Tenants[0].Socket = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative home socket accepted")
	}
}
