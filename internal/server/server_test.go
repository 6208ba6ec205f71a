package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nvdimmc/internal/core"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/replay"
	"nvdimmc/internal/sim"
)

// testMember is the shrunken module shape the pool tests use.
func testMember() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 1 << 20
	cfg.NAND.BlocksPerDie = 32
	cfg.NAND.PagesPerBlock = 16
	return cfg
}

func testPoolCfg(channels int) pool.Config {
	return pool.Config{
		Channels:        channels,
		DIMMsPerChannel: 1,
		Interleave:      4096,
		Member:          testMember(),
		Seed:            7,
		PrefillPages:    8,
	}
}

// newTestServer starts a Server plus an httptest front-end and returns the
// typed client. The server is shut down at test end if the test didn't.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *Client) {
	t.Helper()
	cfg := Config{Pool: testPoolCfg(3)}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		select {
		case <-s.Done():
		default:
			s.Shutdown()
		}
		ts.Close()
	})
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

func TestSubmitWaitCompletes(t *testing.T) {
	_, c := newTestServer(t, nil)
	res, code, err := c.Submit(Op{Op: "read", Off: 0, Len: 4096}, true)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || res.Status != "completed" {
		t.Fatalf("sync read: HTTP %d, status %q", code, res.Status)
	}
	if res.ID == 0 || res.LatencyUS <= 0 {
		t.Fatalf("sync read: id %d latency %v us", res.ID, res.LatencyUS)
	}
	res, code, err = c.Submit(Op{Op: "w", Off: 8192}, true) // default len
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || res.Status != "completed" || !res.Write {
		t.Fatalf("sync write: HTTP %d, %+v", code, res)
	}
}

func TestSubmitAsyncAndPoll(t *testing.T) {
	const n = 16
	_, c := newTestServer(t, nil)
	ids := map[uint64]bool{}
	for i := 0; i < n; i++ {
		res, code, err := c.Submit(Op{Off: int64(i) * 4096}, false)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusAccepted || res.Status != "accepted" {
			t.Fatalf("async submit %d: HTTP %d, status %q", i, code, res.Status)
		}
		if res.ID == 0 || ids[res.ID] {
			t.Fatalf("async submit %d: bad or duplicate id %d", i, res.ID)
		}
		ids[res.ID] = true
	}
	if _, err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		recs, err := c.Poll(4) // chunked drain
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			if !ids[r.ID] {
				t.Fatalf("polled unknown id %d", r.ID)
			}
			if r.Status != "completed" {
				t.Fatalf("id %d: status %q", r.ID, r.Status)
			}
			delete(ids, r.ID)
			got++
		}
	}
	if got != n {
		t.Fatalf("polled %d completions, want %d", got, n)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, nil)
	cases := []Op{
		{Op: "x", Off: 0},        // bad verb
		{Off: -4096},             // negative offset
		{Off: 0, Len: -1},        // negative length
		{Off: 1 << 60},           // beyond capacity
		{Off: 0, Tenant: -1},     // negative tenant
		{Off: 0, DeadlineUS: -1}, // negative deadline
	}
	for i, op := range cases {
		_, code, err := c.Submit(op, false)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest {
			t.Fatalf("case %d (%+v): HTTP %d, want 400", i, op, code)
		}
	}
	// Malformed JSON body.
	resp, err := c.http().Post(c.Base+"/v1/submit", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestThrottledMapsTo429: an isolated tenant over its token bucket gets the
// typed ErrTenantThrottled surfaced as 429 with status "throttled".
func TestThrottledMapsTo429(t *testing.T) {
	_, c := newTestServer(t, func(cfg *Config) {
		cfg.Pool.QoS = pool.QoSConfig{
			Isolation: true,
			Tenants: []pool.TenantQoS{
				{Name: "gated", RatePerSec: 1, Burst: 1},
			},
		}
	})
	res, code, err := c.Submit(Op{Off: 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted {
		t.Fatalf("first op from a full bucket: HTTP %d", code)
	}
	// The bucket refills at 1 req/simulated second; the plane has advanced
	// microseconds at most, so the next submissions throttle.
	saw := 0
	for i := 0; i < 4; i++ {
		res, code, err = c.Submit(Op{Off: 4096}, false)
		if err != nil {
			t.Fatal(err)
		}
		if code == http.StatusTooManyRequests {
			if res.Status != "throttled" || res.ID == 0 || res.Error == "" {
				t.Fatalf("throttled result: %+v", res)
			}
			saw++
		}
	}
	if saw == 0 {
		t.Fatal("no submission throttled against a drained 1 req/s bucket")
	}
}

// TestShedMapsTo503: under a shedding admission policy, a single request
// whose fragment burst exceeds a channel's pending cap is refused at
// admission — typed ErrAdmissionFull, surfaced as 503 with status "shed".
func TestShedMapsTo503(t *testing.T) {
	_, c := newTestServer(t, func(cfg *Config) {
		cfg.Pool.Admission = pool.AdmitShedNewest
		cfg.Pool.PendingCap = 8
	})
	// 64 pages across 3 channels is ~21 fragments per channel: over the
	// write cap (PendingCap/2 = 4) in one submission, deterministically.
	res, code, err := c.Submit(Op{Op: "w", Off: 0, Len: 64 * 4096}, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || res.Status != "shed" {
		t.Fatalf("oversized write under shed-newest: HTTP %d, status %q", code, res.Status)
	}
	if res.ID == 0 || res.Error == "" {
		t.Fatalf("shed result: %+v", res)
	}
}

// TestExpiredMapsTo504: a sync-wait request that cannot finish inside its
// deadline expires in the plane — typed ErrDeadlineExceeded, 504.
func TestExpiredMapsTo504(t *testing.T) {
	_, c := newTestServer(t, func(cfg *Config) {
		cfg.Pool = testPoolCfg(1) // one channel: the burst cannot spread
	})
	// 128 fragments on one channel: the window and queue hold ~96, so some
	// are still admission-held at the next boundary, where the 1 ns
	// deadline has long passed.
	res, code, err := c.Submit(Op{Op: "w", Off: 0, Len: 128 * 4096, DeadlineUS: 0.001}, true)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusGatewayTimeout || res.Status != "expired" {
		t.Fatalf("1ns-deadline burst: HTTP %d, status %q (err %q)", code, res.Status, res.Error)
	}
}

func TestStreamEndpoint(t *testing.T) {
	_, c := newTestServer(t, nil)
	ops := []Op{
		{Op: "r", Off: 0, Seq: 11},
		{Op: "w", Off: 4096, Seq: 22},
		{Op: "nope", Off: 0, Seq: 33}, // invalid: refused inline
		{Op: "r", Off: 8192},          // Seq 0: gets input position 4
	}
	results, sum, err := c.Stream(ops)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ops != 4 || sum.Invalid != 1 || sum.Completed != 3 {
		t.Fatalf("summary: %+v", sum)
	}
	seqs := map[int]string{}
	for _, r := range results {
		seqs[r.Seq] = r.Status
	}
	if seqs[11] != "completed" || seqs[22] != "completed" || seqs[33] != "invalid" || seqs[4] != "completed" {
		t.Fatalf("per-op results: %v", seqs)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	_, c := newTestServer(t, nil)
	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Submit(Op{Off: 0}, true); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Completed != 1 || st.Terminal != 1 {
		t.Fatalf("stats after one sync op: %+v", st)
	}
	if st.Capacity <= 0 || len(st.Channels) != 3 || st.Epochs == 0 {
		t.Fatalf("stats shape: capacity %d, %d channels, %d epochs",
			st.Capacity, len(st.Channels), st.Epochs)
	}
	if st.LatP50US <= 0 {
		t.Fatalf("latency percentiles missing: %+v", st)
	}
}

// TestPollRingDropsOldest: a slow poller loses the oldest records, counted,
// never blocking the plane.
func TestPollRingDropsOldest(t *testing.T) {
	s, c := newTestServer(t, nil)
	s.call(func() { s.ringCap = 4 })
	const n = 10
	for i := 0; i < n; i++ {
		if _, code, err := c.Submit(Op{Off: int64(i) * 4096}, false); err != nil || code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d, %v", i, code, err)
		}
		// Quiesce between submissions so completion order is the
		// submission order and the drop set is deterministic.
		if _, err := c.WaitQuiesced(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := c.Poll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("ring held %d records, want 4", len(recs))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PollDropped != n-4 {
		t.Fatalf("dropped %d, want %d", st.PollDropped, n-4)
	}
	for i, r := range recs {
		if want := uint64(n - 4 + i + 1); r.ID != want {
			t.Fatalf("ring[%d] = id %d, want %d (newest-surviving order)", i, r.ID, want)
		}
	}
}

func TestShutdownDrainsAndRefuses(t *testing.T) {
	s, c := newTestServer(t, nil)
	const n = 12
	for i := 0; i < n; i++ {
		if _, code, err := c.Submit(Op{Op: "w", Off: int64(i) * 4096}, false); err != nil || code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d, %v", i, code, err)
		}
	}
	rep, err := c.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Health != "ok" {
		t.Fatalf("drain health: %q", rep.Health)
	}
	st := rep.Stats
	if st.Submitted != n || st.Terminal != n || st.Backlog != 0 {
		t.Fatalf("post-drain stats: %+v", st)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("sim loop still running after shutdown")
	}
	// The service now refuses everything politely.
	if err := c.Healthz(); err == nil {
		t.Fatal("healthz still 200 after shutdown")
	}
	if _, code, err := c.Submit(Op{Off: 0}, false); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: HTTP %d, %v", code, err)
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("stats still served after shutdown")
	}
}

// TestCaptureReplayRoundTrip: a strictly sequential sync client makes the
// service's admission instants deterministic, so the captured trace driven
// through an identically configured offline pool must reproduce the
// service's final counters exactly — the service-to-replay half of the
// determinism contract.
func TestCaptureReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := replay.NewWriter(&buf, replay.Binary)
	if err != nil {
		t.Fatal(err)
	}
	rec := replay.NewRecorder(w)
	_, c := newTestServer(t, func(cfg *Config) { cfg.Capture = rec.Record })

	rng := sim.NewRand(3)
	const n = 40
	for i := 0; i < n; i++ {
		op := Op{Off: int64(rng.Intn(128)) * 4096}
		if rng.Intn(2) == 0 {
			op.Op = "w"
		}
		if _, code, err := c.Submit(op, true); err != nil || code != http.StatusOK {
			t.Fatalf("op %d: HTTP %d, %v", i, code, err)
		}
	}
	rep, err := c.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Records() != n {
		t.Fatalf("captured %d of %d", rec.Records(), n)
	}

	p, err := pool.New(testPoolCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := replay.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Drive(p, rd, 0); err != nil {
		t.Fatal(err)
	}
	ps := p.Stats()
	live := rep.Stats
	// Compare on the wire-visible counters (the wire layer reports derived
	// latencies in float microseconds, so compare those separately).
	if ps.Submitted != live.Submitted || ps.Completed != live.Completed ||
		ps.WritesAcked != live.WritesAcked || ps.Epochs != live.Epochs {
		t.Fatalf("replay diverged from live service:\nlive:   %+v\nreplay: sub=%d comp=%d wracked=%d epochs=%d",
			live, ps.Submitted, ps.Completed, ps.WritesAcked, ps.Epochs)
	}
	wantMean := float64(ps.Lat.Mean()) / float64(sim.Microsecond)
	if diff := live.LatMeanUS - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("replay mean latency %v us, live %v us", wantMean, live.LatMeanUS)
	}
}

// TestStatusMappingUnits pins the full error/outcome → status tables,
// including branches hard to reach end-to-end (failed → 500).
func TestStatusMappingUnits(t *testing.T) {
	errCases := map[int]error{
		429: fmt.Errorf("wrap: %w", pool.ErrTenantThrottled),
		503: fmt.Errorf("wrap: %w", pool.ErrAdmissionFull),
		504: fmt.Errorf("wrap: %w", pool.ErrDeadlineExceeded),
		500: errors.New("anything else"),
	}
	for want, err := range errCases {
		if got := errStatus(err); got != want {
			t.Fatalf("errStatus(%v) = %d, want %d", err, got, want)
		}
	}
	outCases := map[int]pool.Outcome{
		200: pool.OutcomeCompleted,
		429: pool.OutcomeThrottled,
		503: pool.OutcomeShed,
		504: pool.OutcomeExpired,
		500: pool.OutcomeFailed,
	}
	for want, o := range outCases {
		if got := outcomeStatus(o); got != want {
			t.Fatalf("outcomeStatus(%v) = %d, want %d", o, got, want)
		}
	}
	r := errResult(9, 2, fmt.Errorf("ctx: %w", pool.ErrAdmissionFull))
	if r.ID != 9 || r.Seq != 2 || r.Status != "shed" || r.Error == "" {
		t.Fatalf("errResult: %+v", r)
	}
}

// TestLoadGenConservation is the in-process version of the service
// campaign: concurrent clients, mixed sync/async/stream traffic, and the
// end-to-end conservation cross-check must hold.
func TestLoadGenConservation(t *testing.T) {
	_, c := newTestServer(t, func(cfg *Config) {
		cfg.Pool.Admission = pool.AdmitShedNewest
		cfg.Pool.PendingCap = 64
	})
	rep, err := LoadGen(LoadConfig{
		Base:        c.Base,
		Clients:     8,
		Ops:         24,
		WritePct:    50,
		WaitEvery:   4,
		StreamEvery: 3,
		Seed:        99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("conservation violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Sent != 8*24 {
		t.Fatalf("sent %d, want %d", rep.Sent, 8*24)
	}
	drain, err := c.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if drain.Health != "ok" {
		t.Fatalf("drain health: %q", drain.Health)
	}
}

// TestStreamBatchTooLarge guards the fan-in bound.
func TestStreamBatchTooLarge(t *testing.T) {
	_, c := newTestServer(t, nil)
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := 0; i <= maxStreamOps; i++ {
		enc.Encode(Op{Off: 0})
	}
	resp, err := c.http().Post(c.Base+"/v1/stream", "application/json", &b)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized stream: HTTP %d, want 400", resp.StatusCode)
	}
}
