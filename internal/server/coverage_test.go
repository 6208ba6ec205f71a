package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
)

// TestShutdownTwice: the second drain request must answer 503 with a typed
// body, and Err must report the (clean) verdict after the first.
func TestShutdownTwice(t *testing.T) {
	s, c := newTestServer(t, nil)
	if err := s.Err(); err != nil {
		t.Fatalf("Err before shutdown: %v", err)
	}
	rep, err := c.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Health != "ok" {
		t.Fatalf("health %q", rep.Health)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err after clean shutdown: %v", err)
	}
	// Second call: handleShutdown's already-down branch.
	resp, err := c.HTTP.Post(c.Base+"/v1/shutdown", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second shutdown: HTTP %d, want 503", resp.StatusCode)
	}
	if _, err := s.Shutdown(); err == nil {
		t.Fatal("direct second Shutdown did not error")
	}
	// Typed-client error paths against a drained server.
	if _, err := c.Shutdown(); err == nil {
		t.Fatal("client Shutdown against a drained server did not error")
	}
	// Stream still answers, but every op fails typed as draining.
	if _, sum, err := c.Stream([]Op{{Op: "read", Off: 0}}); err != nil {
		t.Fatalf("Stream against a drained server: %v", err)
	} else if sum.Failed != 1 {
		t.Fatalf("stream summary on a drained server: %+v", sum)
	}
}

// TestShutdownDrainBoundWedge: a pool MaxEpochs guard smaller than the pending
// backlog must surface as a non-ok drain report, a 500 on the endpoint, and
// a non-nil Err — the "wedged" escape hatch instead of an infinite drain.
func TestShutdownDrainBoundWedge(t *testing.T) {
	s, c := newTestServer(t, func(cfg *Config) {
		p := testPoolCfg(1)
		// Writes ack only after the NAND program lands, and each program
		// takes ten sim-seconds: an uncached write is pinned in flight for
		// millions of epochs, so the drain bound trips deterministically.
		p.Member.NVMC.AckAfterProgram = true
		p.Member.NAND.ProgramLatency = 10 * sim.Second
		cfg.Pool = p
		cfg.Pool.MaxEpochs = 1
	})
	// Keep write-through writes in flight so the pool cannot be quiesced
	// when the 1-epoch drain bound is applied.
	join := startWedgeFeeder(t, s)
	rep, err := s.Shutdown()
	join()
	if err == nil || rep.Health == "ok" {
		t.Fatalf("drain under a 1-epoch cap did not wedge: health %q err %v", rep.Health, err)
	}
	if rep.Stats.Backlog == 0 {
		t.Fatalf("wedged drain report shows no backlog: %+v", rep.Stats)
	}
	if s.Err() == nil {
		t.Fatal("Err is nil after a wedged drain")
	}
	// The healthz endpoint reports unhealthy once the wedged drain landed.
	if err := c.Healthz(); err == nil {
		t.Fatal("healthz after wedged drain reported healthy")
	}
}

// TestShutdownDrainPastGuard: the pool's MaxEpochs bounds one drain call,
// not the pool's age. A server whose pool already stepped past its guard
// drains a write still in flight and reports health=ok.
func TestShutdownDrainPastGuard(t *testing.T) {
	const guard = 1000
	s, c := newTestServer(t, func(cfg *Config) {
		cfg.Pool = testPoolCfg(1)
		cfg.Pool.MaxEpochs = guard
	})
	// Past the DRAM cache, every page written evicts a dirty one: a
	// 416-page write takes about 1500 epochs, and then a 64-page write
	// about 500, which the drain takes.
	if _, _, err := c.Submit(Op{Op: "write", Off: 0, Len: 416 * 4096}, true); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epochs <= guard {
		t.Fatalf("pool took %d epochs, not past its %d-epoch guard", st.Epochs, guard)
	}
	if _, _, err := c.Submit(Op{Op: "write", Off: 416 * 4096, Len: 64 * 4096}, false); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Shutdown()
	if err != nil || rep.Health != "ok" {
		t.Fatalf("drain of a pool past its guard: health %q err %v", rep.Health, err)
	}
	if rep.Stats.Completed != 2 {
		t.Fatalf("drain report: %d of 2 writes completed", rep.Stats.Completed)
	}
}

// TestShutdownEndpointReportsBadHealth: the HTTP route for the wedged drain
// must answer 500 and still carry the full report body.
func TestShutdownEndpointReportsBadHealth(t *testing.T) {
	s, c := newTestServer(t, func(cfg *Config) {
		p := testPoolCfg(1)
		// Same immortal-write setup as TestShutdownDrainBoundWedge.
		p.Member.NVMC.AckAfterProgram = true
		p.Member.NAND.ProgramLatency = 10 * sim.Second
		cfg.Pool = p
		cfg.Pool.MaxEpochs = 1
	})
	// The feeder keeps write-through writes in flight across the POST's
	// round trip, so the pool cannot be quiesced when the 1-epoch drain
	// bound is applied.
	join := startWedgeFeeder(t, s)
	resp, err := c.HTTP.Post(c.Base+"/v1/shutdown", "application/json", nil)
	join()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("wedged shutdown: HTTP %d, want 500", resp.StatusCode)
	}
}

// startWedgeFeeder keeps overlapping write-through writes in flight on the
// sim loop — each is 1024 fragments, far larger than the 256-page DRAM
// cache, so every one is thousands of epochs of pending NAND programs and
// the pool never quiesces while the feeder runs. The feeder stops at the
// first draining refusal; the returned join waits for it to exit.
func startWedgeFeeder(t *testing.T, s *Server) (join func()) {
	t.Helper()
	feed := func() (ok, draining bool) {
		req, err := s.parseOp(Op{Op: "write", Off: 0, Len: 1024 * 4096})
		if err != nil {
			t.Errorf("feeder parseOp: %v", err)
			return false, false
		}
		ack := make(chan subResult, 1)
		if !s.offer(&submission{req: req, resp: ack}) {
			return false, true
		}
		select {
		case res := <-ack:
			if res.err != nil {
				// Draining refusals end the feeder; transient admission
				// errors (backpressure) just mean the pool is already busy.
				return false, errors.Is(res.err, errDraining)
			}
			return true, false
		case <-s.done:
			return false, true
		}
	}
	// The first write must be admitted before the caller initiates the
	// drain, or the shutdown can win the race against an empty pool.
	if ok, _ := feed(); !ok {
		t.Fatal("feeder could not admit the first write")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, draining := feed(); draining {
				return
			}
		}
	}()
	return func() { <-done }
}

// fakeStats serves a fixed /v1/stats body so client-side branches can be
// driven deterministically regardless of sim speed.
func fakeStats(t *testing.T, st Stats) *Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, st)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL, HTTP: ts.Client()}
}

// TestWaitQuiescedTimeout: a service that never quiesces must time out with
// the backlog in the error, and a service that is quiesced returns at once.
func TestWaitQuiescedTimeout(t *testing.T) {
	busy := fakeStats(t, Stats{Submitted: 10, Terminal: 4, Backlog: 6})
	if _, err := busy.WaitQuiesced(5 * time.Millisecond); err == nil {
		t.Fatal("no timeout against a never-quiescing service")
	} else if !strings.Contains(err.Error(), "not quiesced") {
		t.Fatalf("timeout error %q", err)
	}
	idle := fakeStats(t, Stats{Submitted: 10, Terminal: 10})
	if _, err := idle.WaitQuiesced(time.Second); err != nil {
		t.Fatalf("quiesced service: %v", err)
	}
	// Transport error branch: nothing listening on the base URL.
	dead := &Client{Base: "http://127.0.0.1:1"}
	if _, err := dead.WaitQuiesced(time.Millisecond); err == nil {
		t.Fatal("no error against a dead service")
	}
}

// TestLoadGenAllKnobs drives the generator with every option engaged —
// deadlines, multiple tenants, stream and sync mixes — against a shedding
// pool, and still demands a clean conservation ledger.
func TestLoadGenAllKnobs(t *testing.T) {
	_, c := newTestServer(t, func(cfg *Config) {
		p := testPoolCfg(2)
		p.Admission = pool.AdmitDeadlineAware
		p.PendingCap = 32
		cfg.Pool = p
	})
	rep, err := LoadGen(LoadConfig{
		Base:        c.Base,
		Clients:     8,
		Ops:         12,
		WritePct:    40,
		Tenants:     3,
		DeadlineUS:  1500,
		WaitEvery:   2,
		StreamEvery: 3,
		Seed:        99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("conservation violations:\n  %s", strings.Join(rep.Violations, "\n  "))
	}
	if rep.Sent != 8*12 {
		t.Fatalf("sent %d of %d", rep.Sent, 8*12)
	}
	if rep.Final.Submitted != uint64(rep.Sent) {
		t.Fatalf("server submitted %d for %d sent", rep.Final.Submitted, rep.Sent)
	}
}

// TestLoadGenUnreachable: mechanical failure (no service) is an error, not
// a violations list.
func TestLoadGenUnreachable(t *testing.T) {
	if _, err := LoadGen(LoadConfig{Base: "http://127.0.0.1:1", Clients: 1, Ops: 1}); err == nil {
		t.Fatal("LoadGen against a dead address did not error")
	}
}

// TestHandlerValidation: malformed inputs answer 400 with a typed body on
// every mutating endpoint, and poll's max parameter is validated.
func TestHandlerValidation(t *testing.T) {
	_, c := newTestServer(t, nil)
	for _, tc := range []struct {
		name, path, body string
	}{
		{"submit bad json", "/v1/submit", "{"},
		{"stream bad json", "/v1/stream", "{\"op\":\"read\"}\n{"},
		{"submit bad verb", "/v1/submit", `{"op":"erase","off":0}`},
		{"submit negative off", "/v1/submit", `{"op":"read","off":-4096}`},
		{"submit past capacity", "/v1/submit", fmt.Sprintf(`{"op":"read","off":%d}`, int64(1)<<60)},
		{"submit bad tenant", "/v1/submit", `{"op":"read","off":0,"tenant":-1}`},
		{"submit bad deadline", "/v1/submit", `{"op":"read","off":0,"deadline_us":-1}`},
	} {
		resp, err := c.HTTP.Post(c.Base+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := c.HTTP.Get(c.Base + "/v1/poll?max=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("poll bad max: HTTP %d, want 400", resp.StatusCode)
	}
	// Wrong method on a POST-only route: the method-pattern mux answers 405.
	resp, err = c.HTTP.Get(c.Base + "/v1/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/submit: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestClientTransportErrors: every client verb must surface a transport
// failure as an error, not a zero-value success.
func TestClientTransportErrors(t *testing.T) {
	dead := &Client{Base: "http://127.0.0.1:1"}
	if _, _, err := dead.Stream([]Op{{Op: "read"}}); err == nil {
		t.Fatal("Stream against a dead address did not error")
	}
	if _, _, err := dead.Submit(Op{Op: "read"}, true); err == nil {
		t.Fatal("Submit against a dead address did not error")
	}
	if err := dead.Healthz(); err == nil {
		t.Fatal("Healthz against a dead address did not error")
	}
	if _, err := dead.Poll(0); err == nil {
		t.Fatal("Poll against a dead address did not error")
	}
	if _, err := dead.Shutdown(); err == nil {
		t.Fatal("Shutdown against a dead address did not error")
	}
	if _, err := dead.Stats(); err == nil {
		t.Fatal("Stats against a dead address did not error")
	}
}
