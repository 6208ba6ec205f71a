// client.go is the service's bundled client: a thin typed wrapper over the
// HTTP endpoints and a concurrent load generator that drives N clients at
// the service and cross-checks the conservation equation end to end — every
// op it sent must be accounted for in the server's terminal counters, and
// every async admit must come back exactly once through the poll ring.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
)

// RetryPolicy bounds automatic resubmission of refused Submits. Only 429
// (throttled) and 503 (shed / draining) are retried — both mean "the plane
// refused this op right now", the only refusals where trying again can
// succeed. Backoff is exponential from Base to Cap with seeded jitter, and
// the whole retry loop stays inside Budget — further capped by the op's own
// DeadlineUS, so a deadline-carrying op fails fast instead of retrying past
// the point where the server would expire it anyway.
type RetryPolicy struct {
	// Max is the retry attempt count after the first try (0 disables retry).
	Max int
	// Base is the first backoff step (default 2ms).
	Base time.Duration
	// Cap is the backoff ceiling (default 64ms).
	Cap time.Duration
	// Budget is the wall-clock allowance for the whole Submit including
	// backoff sleeps (default 250ms).
	Budget time.Duration
	// Seed drives the jitter RNG (default 1) — seeded so test runs are
	// reproducible.
	Seed uint64
}

// backoff returns the jittered exponential delay before retry `attempt`
// (1-based): half the step deterministic, half uniformly jittered by jit.
func (p *RetryPolicy) backoff(jit uint64, attempt int) time.Duration {
	base, cap := p.Base, p.Cap
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if cap <= 0 {
		cap = 64 * time.Millisecond
	}
	d := base << (attempt - 1)
	if d > cap || d <= 0 {
		d = cap
	}
	return d/2 + time.Duration(jit%uint64(d/2+1))
}

// Client is a typed HTTP client for one service instance.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8383".
	Base string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// Retry, when set with Max > 0, resubmits throttled/shed Submits with
	// bounded jittered backoff. Nil keeps the historical fail-fast behavior.
	Retry *RetryPolicy

	retryMu  sync.Mutex
	retryRNG *sim.Rand
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) post(path string, body any, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	resp, err := c.http().Post(c.Base+path, "application/json", &buf)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *Client) get(path string, out any) (int, error) {
	resp, err := c.http().Get(c.Base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Submit posts one op. The Result carries the admit/terminal status; the
// int is the HTTP status code (202 async accept, 200 sync complete, 429
// throttled, 503 shed, 504 expired, 500 failed, 400 invalid).
func (c *Client) Submit(op Op, wait bool) (Result, int, error) {
	path := "/v1/submit"
	if wait {
		path += "?wait=1"
	}
	var res Result
	code, err := c.post(path, op, &res)
	p := c.Retry
	if p == nil || p.Max <= 0 || err != nil || !retryable(code) {
		return res, code, err
	}
	start := time.Now()
	budget := p.Budget
	if budget <= 0 {
		budget = 250 * time.Millisecond
	}
	if op.DeadlineUS > 0 {
		if d := time.Duration(op.DeadlineUS * float64(time.Microsecond)); d < budget {
			budget = d
		}
	}
	for attempt := 1; attempt <= p.Max; attempt++ {
		delay := p.backoff(c.retryJitter(), attempt)
		if time.Since(start)+delay > budget {
			break
		}
		time.Sleep(delay)
		res = Result{}
		code, err = c.post(path, op, &res)
		if err != nil || !retryable(code) {
			break
		}
	}
	return res, code, err
}

// retryable: refusals where a later attempt can succeed. 504/500/400 are
// final for this op; 429/503 only describe the plane's current load.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryJitter draws the next jitter word; locked, since one Client may be
// shared by concurrent submitters.
func (c *Client) retryJitter() uint64 {
	c.retryMu.Lock()
	defer c.retryMu.Unlock()
	if c.retryRNG == nil {
		seed := c.Retry.Seed
		if seed == 0 {
			seed = 1
		}
		c.retryRNG = sim.NewRand(seed)
	}
	return c.retryRNG.Uint64()
}

// Stream posts a batch of ops and decodes the full JSON-lines response:
// per-op Results in completion order plus the final summary.
func (c *Client) Stream(ops []Op) ([]Result, StreamSummary, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, op := range ops {
		if err := enc.Encode(op); err != nil {
			return nil, StreamSummary{}, err
		}
	}
	resp, err := c.http().Post(c.Base+"/v1/stream", "application/json", &buf)
	if err != nil {
		return nil, StreamSummary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return nil, StreamSummary{}, fmt.Errorf("stream: HTTP %d: %s", resp.StatusCode, eb.Error)
	}
	dec := json.NewDecoder(resp.Body)
	var results []Result
	var sum StreamSummary
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return results, sum, fmt.Errorf("stream: decode line: %w", err)
		}
		var probe struct {
			Summary bool `json:"summary"`
		}
		if json.Unmarshal(raw, &probe) == nil && probe.Summary {
			if err := json.Unmarshal(raw, &sum); err != nil {
				return results, sum, err
			}
			continue
		}
		var res Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return results, sum, err
		}
		results = append(results, res)
	}
	return results, sum, nil
}

// Poll drains up to max (0: all) buffered async completions.
func (c *Client) Poll(max int) ([]Result, error) {
	path := "/v1/poll"
	if max > 0 {
		path = fmt.Sprintf("%s?max=%d", path, max)
	}
	resp, err := c.http().Get(c.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("poll: HTTP %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var out []Result
	for {
		var res Result
		if err := dec.Decode(&res); err == io.EOF {
			break
		} else if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Stats fetches /v1/stats.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	code, err := c.get("/v1/stats", &st)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("stats: HTTP %d", code)
	}
	return st, nil
}

// Healthz returns nil while the service accepts submissions.
func (c *Client) Healthz() error {
	code, err := c.get("/v1/healthz", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", code)
	}
	return nil
}

// Shutdown drains the service and returns its final report.
func (c *Client) Shutdown() (DrainReport, error) {
	var rep DrainReport
	code, err := c.post("/v1/shutdown", nil, &rep)
	if err != nil {
		return rep, err
	}
	if code != http.StatusOK {
		return rep, fmt.Errorf("shutdown: HTTP %d, health %q", code, rep.Health)
	}
	return rep, nil
}

// WaitQuiesced polls /v1/stats until every submission has a terminal
// outcome and the backlog is empty, or the wall-clock timeout passes.
func (c *Client) WaitQuiesced(timeout time.Duration) (Stats, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Stats()
		if err != nil {
			return st, err
		}
		if st.Terminal == st.Submitted && st.Backlog == 0 {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("service not quiesced after %v: %d/%d terminal, backlog %d",
				timeout, st.Terminal, st.Submitted, st.Backlog)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// LoadConfig shapes one generated load: Clients concurrent connections,
// each issuing Ops one-page operations over the service capacity that
// /v1/stats reports.
type LoadConfig struct {
	// Base is the service root URL.
	Base string
	// Clients is the concurrent client count (default 32).
	Clients int
	// Ops per client (default 64).
	Ops int
	// WritePct is the write fraction in percent (default 50).
	WritePct int
	// Tenants spreads clients round-robin over this many tenant IDs
	// (default 1).
	Tenants int
	// DeadlineUS attaches a relative deadline to every op; 0 means none.
	DeadlineUS float64
	// WaitEvery makes every Nth op a sync wait (0: all async).
	WaitEvery int
	// StreamEvery routes every Nth client's whole batch through /v1/stream
	// (0: none).
	StreamEvery int
	// Seed derives every client's op stream (default 1).
	Seed uint64
}

// LoadReport is what the generator observed, cross-checked against the
// server's own accounting. Violations lists every conservation breach; a
// clean run has none.
type LoadReport struct {
	// Sent counts ops that reached Submit (got an ID back); Invalid counts
	// client-side 400s (never submitted); HTTPErrors counts transport
	// failures (unaccountable — they fail the run).
	Sent       int
	Invalid    int
	HTTPErrors int
	// Accepted counts async admits (202); the rest are sync outcomes as
	// the client saw them.
	Accepted  int
	Completed int
	Shed      int
	Expired   int
	Failed    int
	Throttled int
	// Polled counts async completions drained via /v1/poll after quiesce.
	Polled int
	// Final is the server's post-quiesce stats snapshot.
	Final Stats
	// Violations: conservation breaches, empty on a clean run.
	Violations []string
}

// LoadGen drives the configured load and verifies conservation end to end.
// The returned error covers mechanical failure (service unreachable, never
// quiesced); accounting breaches land in Report.Violations so callers can
// distinguish "could not test" from "tested and failed".
func LoadGen(cfg LoadConfig) (LoadReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 32
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 64
	}
	if cfg.WritePct == 0 {
		cfg.WritePct = 50
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Client{Base: cfg.Base}
	info, err := c.Stats()
	if err != nil {
		return LoadReport{}, fmt.Errorf("loadgen: fetch capacity: %w", err)
	}
	blocks := info.Capacity / pool.PageSize
	if blocks <= 0 {
		return LoadReport{}, fmt.Errorf("loadgen: capacity %d below one page", info.Capacity)
	}

	var sent, invalid, httpErrs, accepted atomic.Int64
	var completed, shed, expired, failed, throttled atomic.Int64
	count := func(status string, id uint64) {
		if id != 0 {
			sent.Add(1)
		}
		switch status {
		case "accepted":
			accepted.Add(1)
		case "completed":
			completed.Add(1)
		case "shed":
			shed.Add(1)
		case "expired":
			expired.Add(1)
		case "throttled":
			throttled.Add(1)
		case "failed":
			failed.Add(1)
		}
	}

	var wg sync.WaitGroup
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := &Client{Base: cfg.Base}
			rng := sim.NewRand(sim.SplitSeed(cfg.Seed, fmt.Sprintf("loadgen/%d", ci)))
			genOp := func(i int) Op {
				op := Op{
					Off:        int64(rng.Uint64()%uint64(blocks)) * pool.PageSize,
					Len:        pool.PageSize,
					Tenant:     ci % cfg.Tenants,
					DeadlineUS: cfg.DeadlineUS,
					Seq:        ci*cfg.Ops + i + 1,
				}
				if int(rng.Uint64()%100) < cfg.WritePct {
					op.Op = "w"
				} else {
					op.Op = "r"
				}
				return op
			}
			if cfg.StreamEvery > 0 && (ci+1)%cfg.StreamEvery == 0 {
				ops := make([]Op, cfg.Ops)
				for i := range ops {
					ops[i] = genOp(i)
				}
				results, sum, err := cl.Stream(ops)
				if err != nil {
					httpErrs.Add(1)
					return
				}
				invalid.Add(int64(sum.Invalid))
				for _, res := range results {
					count(res.Status, res.ID)
				}
				return
			}
			for i := 0; i < cfg.Ops; i++ {
				wait := cfg.WaitEvery > 0 && (i+1)%cfg.WaitEvery == 0
				res, code, err := cl.Submit(genOp(i), wait)
				if err != nil {
					httpErrs.Add(1)
					continue
				}
				if code == http.StatusBadRequest {
					invalid.Add(1)
					continue
				}
				count(res.Status, res.ID)
			}
		}(ci)
	}
	wg.Wait()

	rep := LoadReport{
		Sent:       int(sent.Load()),
		Invalid:    int(invalid.Load()),
		HTTPErrors: int(httpErrs.Load()),
		Accepted:   int(accepted.Load()),
		Completed:  int(completed.Load()),
		Shed:       int(shed.Load()),
		Expired:    int(expired.Load()),
		Failed:     int(failed.Load()),
		Throttled:  int(throttled.Load()),
	}

	// Quiesce, then drain the poll ring: every async admit must come back
	// exactly once (or be an accounted ring drop).
	st, err := c.WaitQuiesced(30 * time.Second)
	if err != nil {
		return rep, err
	}
	for {
		recs, err := c.Poll(0)
		if err != nil {
			return rep, fmt.Errorf("loadgen: drain poll ring: %w", err)
		}
		if len(recs) == 0 {
			break
		}
		rep.Polled += len(recs)
	}
	st, err = c.Stats()
	if err != nil {
		return rep, err
	}
	rep.Final = st

	bad := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	if rep.HTTPErrors > 0 {
		bad("%d transport errors: ops unaccountable", rep.HTTPErrors)
	}
	// Every op that got an ID is in the server's submitted count — and
	// nothing else is (this generator owns the service).
	if uint64(rep.Sent) != st.Submitted {
		bad("sent %d ops with IDs but server submitted %d", rep.Sent, st.Submitted)
	}
	if st.Terminal != st.Submitted {
		bad("conservation: terminal %d != submitted %d", st.Terminal, st.Submitted)
	}
	l := st.Ledger()
	if got := l.Terminal(); got != st.Terminal {
		bad("terminal sum %d != reported terminal %d", got, st.Terminal)
	}
	if lost := l.WritesLost(); lost != 0 {
		bad("acked-write loss: %d writes in, %d accounted", st.WritesIn, st.WritesIn-lost)
	}
	// Async conservation: each 202 produces exactly one ring record.
	if got := uint64(rep.Polled) + st.PollDropped; got != uint64(rep.Accepted) {
		bad("async: %d accepted but %d polled + %d dropped", rep.Accepted, rep.Polled, st.PollDropped)
	}
	// Sync outcomes the clients saw can never exceed the server's counts.
	if uint64(rep.Throttled) != st.Throttled {
		bad("throttled: clients saw %d, server counted %d", rep.Throttled, st.Throttled)
	}
	if uint64(rep.Shed) > st.Shed {
		bad("shed: clients saw %d sync sheds, server counted %d", rep.Shed, st.Shed)
	}
	return rep, nil
}
