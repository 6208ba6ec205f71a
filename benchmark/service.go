package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"nvdimmc/internal/core"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/server"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// The service workload's client: one client with two HTTP connections, a
// size a 2-core host can drive without starving the server. Each phase sends
// pre-generated sync submits; the two open-loop phases send at the
// generated arrival instants in wall time, the closed loop back to back.
const (
	serviceConns = 2
	rate2k       = 2000
	rate6k       = 6000
	// Phase lengths: p99 at either rate has at least ten samples beyond it
	// in one rep, p999 at 2k req/s once ten reps are pooled.
	requests2k     = 1000 // 0.5 s
	requests6k     = 3000 // 0.5 s
	requestsClosed = 20000
)

// servicePool mirrors nvdimmc-serve's defaults, with two epoch workers.
func servicePool() pool.Config {
	return pool.Config{
		Channels:        3,
		DIMMsPerChannel: 1,
		Interleave:      4096,
		Member:          core.DefaultConfig(),
		Workers:         2,
		Seed:            7,
		PrefillPages:    -1,
	}
}

// serviceSystem is an in-process nvdimmc-serve on a loopback listener.
type serviceSystem struct {
	cfg       pool.Config
	footprint int64

	srv *server.Server
	hs  *http.Server
	cl  *server.Client
	tr  *http.Transport
	// served closes when the HTTP server's Serve loop returns.
	served chan struct{}

	phases  [3][]openloop.Request // 2k open loop, 6k open loop, closed loop
	samples map[string][]float64
	closedS float64
	// The client's ledger: what it sent and what completed.
	sent, completed, writes, writesAcked int
	final                                server.Stats
}

// newService learns the cached footprint from a reference pool of the
// server's geometry, before the server is built: the server keeps its pool
// private, and the footprint is an input to the generator.
func newService() (system, error) {
	cfg := servicePool()
	ref, err := pool.New(cfg)
	if err != nil {
		return nil, err
	}
	return &serviceSystem{cfg: cfg, footprint: ref.CachedFootprint()}, nil
}

func (s *serviceSystem) setup() (err error) {
	s.srv, err = server.New(server.Config{Pool: s.cfg})
	return err
}

func (s *serviceSystem) prepare(seed uint64, scale float64) error {
	tenants := []openloop.Tenant{{Name: "svc", Dist: openloop.Uniform, ReadPct: 70, Footprint: s.footprint}}
	for i, ph := range []struct {
		rate float64
		n    int
	}{{rate2k, requests2k}, {rate6k, requests6k}, {0, requestsClosed}} {
		reqs, err := generate(openloop.Config{
			Seed: sim.SplitSeed(seed, fmt.Sprintf("phase-%d", i)), RatePerSec: ph.rate, Tenants: tenants,
		}, scaled(ph.n, scale))
		if err != nil {
			return err
		}
		s.phases[i] = reqs
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		// Serve returns http.ErrServerClosed once close shuts it down; any
		// other failure reaches the client as a transport error.
		_ = s.hs.Serve(ln)
	}()
	s.tr = &http.Transport{MaxConnsPerHost: serviceConns, MaxIdleConnsPerHost: serviceConns}
	s.cl = &server.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.tr}}
	s.samples = map[string][]float64{}
	return nil
}

// outcome is what the client saw for one request. released is when the
// generator could first hand the request over: its due time, or later if
// the generator's timer woke late. Host latency runs from released, so a
// stall that holds up later sends counts against the service while the
// host's timer slack does not; how late sends left is reported apart.
type outcome struct {
	due, released, sent, done time.Time
	ok                        bool
	simUS                     float64
}

// send submits one request synchronously and waits for its terminal outcome.
func (s *serviceSystem) send(q openloop.Request) outcome {
	op := server.Op{Op: "r", Off: q.Off, Len: q.Len}
	if q.Write {
		op.Op = "w"
	}
	var o outcome
	o.sent = time.Now()
	res, code, err := s.cl.Submit(op, true)
	o.done = time.Now()
	o.ok = err == nil && code == http.StatusOK && res.Status == "completed"
	o.simUS = res.LatencyUS
	return o
}

// drive sends reqs over the client's connections. With open set, request i
// is due at its generated arrival offset from the phase start and a sender
// picks it up no earlier; otherwise each sender works back to back.
func (s *serviceSystem) drive(reqs []openloop.Request, open bool) []outcome {
	out := make([]outcome, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < serviceConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				due, released := out[i].due, out[i].released
				out[i] = s.send(reqs[i])
				out[i].due, out[i].released = due, released
			}
		}()
	}
	start := time.Now()
	awake := start
	for i, q := range reqs {
		due := time.Now()
		if open {
			due = start.Add(time.Duration(q.Arrival / sim.Nanosecond))
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
				awake = time.Now()
			}
		}
		out[i].due, out[i].released = due, due
		if awake.After(due) {
			out[i].released = awake
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

func (s *serviceSystem) tally(reqs []openloop.Request, out []outcome) {
	for i, o := range out {
		s.sent++
		if reqs[i].Write {
			s.writes++
		}
		if o.ok {
			s.completed++
			if reqs[i].Write {
				s.writesAcked++
			}
		}
		s.samples["model_us"] = append(s.samples["model_us"], o.simUS)
	}
}

// record keeps an open-loop phase's host latencies and how late each
// request left the generator.
func (s *serviceSystem) record(tag string, out []outcome) {
	for _, o := range out {
		lat := float64(o.done.Sub(o.released).Nanoseconds()) / 1e6
		s.samples["lat_"+tag] = append(s.samples["lat_"+tag], lat)
		s.samples["late"] = append(s.samples["late"], float64(o.sent.Sub(o.due).Nanoseconds())/1e6)
		s.samples["sim_us"] = append(s.samples["sim_us"], o.simUS)
		s.samples["overhead_ms"] = append(s.samples["overhead_ms"], lat-o.simUS/1e3)
	}
}

func (s *serviceSystem) run() (int, error) {
	for i, tag := range []string{"2k", "6k"} {
		out := s.drive(s.phases[i], true)
		s.tally(s.phases[i], out)
		s.record(tag, out)
	}
	start := time.Now()
	out := s.drive(s.phases[2], false)
	s.closedS = time.Since(start).Seconds()
	s.tally(s.phases[2], out)
	return s.sent, nil
}

// check reconciles the client's ledger with the server's /v1/stats, then
// drains the service through /v1/shutdown and requires a clean audit.
func (s *serviceSystem) check(offered int) (int, []string) {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	failed := offered - s.completed
	st, err := s.cl.Stats()
	if err != nil {
		bad("stats: %v", err)
		return failed, problems
	}
	if st.Submitted != uint64(s.sent) || st.Completed != uint64(s.completed) || st.Terminal != st.Submitted {
		bad("client sent %d with %d completed; server submitted %d, completed %d, terminal %d",
			s.sent, s.completed, st.Submitted, st.Completed, st.Terminal)
	}
	if st.WritesIn != uint64(s.writes) || st.WritesAcked != uint64(s.writesAcked) {
		bad("client sent %d writes with %d acked; server took %d, acked %d",
			s.writes, s.writesAcked, st.WritesIn, st.WritesAcked)
	}
	_, more := ledger{
		st.Submitted, st.Completed, st.Failed, st.Shed, st.Expired, st.Throttled,
		st.WritesIn, st.WritesAcked, st.WritesFailed, st.WritesShed, st.WritesExpired, st.WritesThrottled,
	}.check(offered)
	problems = append(problems, more...)
	rep, err := s.cl.Shutdown()
	if err != nil {
		bad("shutdown: %v", err)
	}
	if rep.Health != "ok" {
		bad("drain audit: %q", rep.Health)
	}
	if rep.Stats.Submitted != st.Submitted {
		bad("drain saw %d submitted, stats %d", rep.Stats.Submitted, st.Submitted)
	}
	s.final = rep.Stats
	return failed, problems
}

func (s *serviceSystem) report(r *rep, runS float64, requests int) {
	m := r.Metrics
	m["req_per_s"] = ratio(float64(len(s.phases[2])), s.closedS)
	epochs := float64(s.final.Epochs)
	m["pool.epochs"] = epochs
	m["pool.epochs_per_s"] = ratio(epochs, runS)
	m["server.epochs_per_req"] = ratio(epochs, float64(s.final.Submitted))
	simS := s.final.SimUS / 1e6
	m["model.sim_s"] = simS
	m["model.bw_mbps"] = ratio(float64(s.final.Completed)*pool.PageSize/1e6, simS)
	serviceMetrics(m, s.samples)
	r.Samples = s.samples
}

// serviceMetrics computes the service's percentiles from its samples; the
// harness calls it again on the samples of all reps pooled.
func serviceMetrics(m map[string]float64, samples map[string][]float64) {
	m["svc.lat_p50_ms_2k"] = percentile(samples["lat_2k"], 50)
	m["svc.lat_p99_ms_2k"] = percentile(samples["lat_2k"], 99)
	m["svc.lat_p999_ms_2k"] = percentile(samples["lat_2k"], 99.9)
	m["svc.lat_p50_ms_6k"] = percentile(samples["lat_6k"], 50)
	m["svc.lat_p99_ms_6k"] = percentile(samples["lat_6k"], 99)
	m["svc.gen_late_p99_ms"] = percentile(samples["late"], 99)
	m["server.sim_p50_us"] = percentile(samples["sim_us"], 50)
	m["server.overhead_p50_ms"] = percentile(samples["overhead_ms"], 50)
	m["model.p50_us"] = percentile(samples["model_us"], 50)
	m["model.p99_us"] = percentile(samples["model_us"], 99)
	m["model.p999_us"] = percentile(samples["model_us"], 99.9)
}

// micro runs the micro-timings on a pool of the server's geometry, since
// the server keeps its own pool private.
func (s *serviceSystem) micro(m map[string]float64) error {
	p, err := pool.New(s.cfg)
	if err != nil {
		return err
	}
	var all []openloop.Request
	for _, ph := range s.phases {
		all = append(all, ph...)
	}
	trace, err := encodeTrace(all)
	if err != nil {
		return err
	}
	return microTimings(m, trace, p, func(off int64) (int64, bool) { return off, true })
}

func (s *serviceSystem) close() {
	if s.srv != nil {
		select {
		case <-s.srv.Done():
		default:
			s.srv.Shutdown()
		}
	}
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.hs.Close()
		}
		cancel()
		<-s.served
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
}
