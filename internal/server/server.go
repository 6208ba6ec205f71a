// Package server exposes a pool's async request plane (pool/plane.go) as a
// network service: a stdlib HTTP/JSON front-end with submit, stream, poll,
// stats, healthz and shutdown endpoints, plus a concurrent load-generator
// client (client.go) that cross-checks the conservation equation end to end.
//
// Concurrency model. The plane is single-threaded by contract — Submit and
// Step only at epoch boundaries — so one sim-loop goroutine owns the pool
// outright. HTTP handlers never touch it: they hand submissions and control
// closures to the loop over channels and wait for the reply. The loop
// blocks when the plane is quiesced and nothing is queued, admits whatever
// arrived at the current boundary, then Steps; completions come back
// through the pool's Notify hook (still inside the loop goroutine) and are
// routed either to the sync waiter parked on that request ID or into a
// bounded poll ring for async callers. Simulated time therefore advances
// only while there is work, as fast as the host allows — this is a
// simulation service, not a real-time one; latencies in responses are
// simulated time.
//
// Determinism boundary. Admission instants depend on wall-clock
// interleaving of real HTTP clients, so two service runs are not
// byte-identical — but a Capture hook records the offered stream with its
// admitted arrivals, and replaying that trace (internal/replay) reproduces
// the run exactly.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// errDraining refuses submissions once shutdown has begun.
var errDraining = errors.New("server: draining, no new submissions")

// Config configures a Server.
type Config struct {
	// Pool configures the owned pool. Notify must be nil — the server
	// installs its own completion router.
	Pool pool.Config
	// Capture, when non-nil, observes every offered request (arrival
	// already stamped) before it is submitted — including ones the plane
	// then sheds or throttles, so a replay reproduces those outcomes too.
	// It is called from the sim-loop goroutine only; a replay.Recorder's
	// Record method is the intended sink.
	Capture func(openloop.Request)
	// PollBuf bounds the async completion ring (default 65536). When full,
	// the oldest record is dropped and counted in Stats.PollDropped, so a
	// slow poller degrades observability, never the plane.
	PollBuf int
	// DrainEpochs bounds the shutdown drain, counted from the drain's
	// start (default 1<<22 epochs), so a wedged plane fails the drain
	// loudly instead of hanging shutdown.
	DrainEpochs int
}

// submission is one op handed from a handler to the sim loop.
type submission struct {
	req  openloop.Request
	seq  int
	wait bool
	// resp receives exactly one subResult per submission; it must have
	// capacity for every outstanding submission sharing it (stream
	// handlers fan many submissions into one channel) so the sim loop
	// never blocks sending.
	resp chan subResult
}

// subResult is the loop's answer: a synchronous typed refusal (err), an
// async admit (id only), or the terminal record (comp) for a sync wait.
type subResult struct {
	id   uint64
	seq  int
	err  error
	comp *pool.Completion
}

// Server owns a pool and serves its request plane over HTTP.
type Server struct {
	cfg      Config
	p        *pool.Pool
	capacity int64

	subs    chan *submission
	ctl     chan func()
	stopReq chan struct{} // closed by the shutdown closure, on the loop
	done    chan struct{} // closed when the loop exits

	draining atomic.Bool

	// Loop-owned state: touched only by the sim-loop goroutine (admit,
	// onCompletion and ctl closures all execute there).
	waiters     map[uint64]*submission
	ring        []pool.Completion
	ringDropped uint64
	captured    int
	healthErr   error
}

// New constructs the pool and starts the sim loop. The caller must
// eventually Shutdown to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.Pool.Notify != nil {
		return nil, fmt.Errorf("server: Config.Pool.Notify is owned by the server")
	}
	if cfg.PollBuf <= 0 {
		cfg.PollBuf = 65536
	}
	if cfg.DrainEpochs <= 0 {
		cfg.DrainEpochs = 1 << 22
	}
	s := &Server{
		cfg:     cfg,
		subs:    make(chan *submission, 256),
		ctl:     make(chan func()),
		stopReq: make(chan struct{}),
		done:    make(chan struct{}),
		waiters: make(map[uint64]*submission),
	}
	cfg.Pool.Notify = s.onCompletion
	p, err := pool.New(cfg.Pool)
	if err != nil {
		return nil, err
	}
	s.p = p
	s.capacity = p.Capacity()
	go s.loop()
	return s, nil
}

// Done is closed once the sim loop has exited (after Shutdown).
func (s *Server) Done() <-chan struct{} { return s.done }

// stopped reports whether the shutdown closure has run.
func (s *Server) stopped() bool {
	select {
	case <-s.stopReq:
		return true
	default:
		return false
	}
}

// loop is the sim-loop goroutine: the only code that touches the pool.
func (s *Server) loop() {
	defer close(s.done)
	for {
		// Idle: block until work arrives. A control closure may not create
		// plane work (stats, poll), so re-check before stepping.
		if s.p.Quiesced() {
			select {
			case sub := <-s.subs:
				s.admit(sub)
			case fn := <-s.ctl:
				fn()
				if s.stopped() {
					return
				}
				continue
			}
		}
		// Busy: gather everything already queued at this boundary without
		// blocking, then advance one epoch.
		for gathering := true; gathering; {
			select {
			case sub := <-s.subs:
				s.admit(sub)
			case fn := <-s.ctl:
				fn()
				if s.stopped() {
					return
				}
			default:
				gathering = false
			}
		}
		if !s.p.Quiesced() {
			s.p.Step()
		}
	}
}

// admit stamps the arrival at the current boundary, captures, and submits.
func (s *Server) admit(sub *submission) {
	if s.draining.Load() {
		sub.resp <- subResult{seq: sub.seq, err: errDraining}
		return
	}
	r := sub.req
	r.Arrival = s.p.Now().Sub(s.p.Origin())
	if s.cfg.Capture != nil {
		s.cfg.Capture(r)
		s.captured++
	}
	id, err := s.p.Submit(r)
	if err != nil {
		sub.resp <- subResult{id: id, seq: sub.seq, err: err}
		return
	}
	if sub.wait {
		s.waiters[id] = sub
		return
	}
	sub.resp <- subResult{id: id, seq: sub.seq}
}

// onCompletion routes one terminal record: to the sync waiter parked on its
// ID, else into the poll ring (dropping the oldest when full). Runs inside
// Step, on the sim-loop goroutine.
func (s *Server) onCompletion(c pool.Completion) {
	if sub, ok := s.waiters[c.ID]; ok {
		delete(s.waiters, c.ID)
		cc := c
		sub.resp <- subResult{id: c.ID, seq: sub.seq, comp: &cc}
		return
	}
	if len(s.ring) >= s.cfg.PollBuf {
		drop := len(s.ring) - s.cfg.PollBuf + 1
		s.ring = s.ring[:copy(s.ring, s.ring[drop:])]
		s.ringDropped += uint64(drop)
	}
	s.ring = append(s.ring, c)
}

// call runs fn on the sim-loop goroutine and waits for it. It returns false
// when the loop has already exited (fn did not run).
func (s *Server) call(fn func()) bool {
	ran := make(chan struct{})
	select {
	case s.ctl <- func() { fn(); close(ran) }:
	case <-s.done:
		return false
	}
	select {
	case <-ran:
		return true
	case <-s.done:
		// The loop exits right after the shutdown closure: ran and done
		// close back to back, and a late waker sees both ready. fn ran iff
		// ran is closed — never report a completed closure as missed.
		select {
		case <-ran:
			return true
		default:
			return false
		}
	}
}

// statsLocked builds the wire Stats; sim-loop goroutine only.
func (s *Server) statsLocked() Stats {
	ps := s.p.Stats()
	us := 1 / float64(sim.Microsecond)
	st := Stats{
		Submitted:     ps.Submitted,
		Completed:     ps.Completed,
		Failed:        ps.Failed,
		Shed:          ps.Shed,
		Expired:       ps.Expired,
		Throttled:     ps.Throttled,
		Terminal:      ps.Terminal(),
		CompletedLate: ps.CompletedLate,

		WritesIn:        ps.WritesIn,
		WritesAcked:     ps.WritesAcked,
		WritesFailed:    ps.WritesFailed,
		WritesShed:      ps.WritesShed,
		WritesExpired:   ps.WritesExpired,
		WritesThrottled: ps.WritesThrottled,

		LatMeanUS: float64(ps.Lat.Mean()) * us,
		LatP50US:  float64(ps.Lat.Percentile(50)) * us,
		LatP99US:  float64(ps.Lat.Percentile(99)) * us,

		Epochs:   ps.Epochs,
		SimUS:    float64(s.p.Now().Sub(s.p.Origin())) * us,
		Backlog:  s.p.Backlog(),
		Capacity: s.capacity,

		PollBuffered: len(s.ring),
		PollDropped:  s.ringDropped,
		Captured:     s.captured,
		Draining:     s.draining.Load(),
	}
	for _, ch := range s.p.Occupancy() {
		st.Channels = append(st.Channels, ChannelState{
			Held: ch.Held, Queued: ch.Queued, InFlight: ch.InFlight, Breaker: ch.Breaker,
		})
	}
	return st
}

// drainLocked steps the plane to quiescence, bounded by DrainEpochs from
// the drain's start; sim-loop goroutine only.
func (s *Server) drainLocked() error {
	for i := 0; !s.p.Quiesced(); i++ {
		if i >= s.cfg.DrainEpochs {
			return fmt.Errorf("server: %d drain epochs without quiescing (backlog %d) — wedged?",
				i, s.p.Backlog())
		}
		s.p.Step()
	}
	return nil
}

// Shutdown drains the plane, audits conservation, stops the sim loop, and
// returns the final report. The returned error is the pool's CheckHealth
// verdict (nil on a clean audit); the report is valid either way. Later
// calls return an error.
func (s *Server) Shutdown() (DrainReport, error) {
	if s.draining.Swap(true) {
		<-s.done
		return DrainReport{}, errors.New("server: already shut down")
	}
	var rep DrainReport
	ok := s.call(func() {
		drainErr := s.drainLocked()
		healthErr := s.p.CheckHealth()
		if healthErr == nil {
			healthErr = drainErr
		}
		s.healthErr = healthErr
		rep.Stats = s.statsLocked()
		if healthErr != nil {
			rep.Health = healthErr.Error()
		} else {
			rep.Health = "ok"
		}
		close(s.stopReq) // the loop exits right after this closure returns
	})
	if !ok {
		return DrainReport{}, errors.New("server: loop already stopped")
	}
	<-s.done
	return rep, s.healthErr
}

// Err returns the final CheckHealth verdict after shutdown (nil before).
func (s *Server) Err() error {
	select {
	case <-s.done:
		return s.healthErr
	default:
		return nil
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/poll", s.handlePoll)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/shutdown", s.handleShutdown)
	return mux
}

// usToDuration converts fractional microseconds to a sim.Duration,
// truncating below picosecond resolution.
func usToDuration(us float64) sim.Duration {
	return sim.Duration(us * float64(sim.Microsecond))
}

// parseOp validates a wire Op against the pool's geometry.
func (s *Server) parseOp(op Op) (openloop.Request, error) {
	var r openloop.Request
	switch op.Op {
	case "", "r", "read":
	case "w", "write":
		r.Write = true
	default:
		return r, fmt.Errorf("op %q: want read|r|write|w", op.Op)
	}
	r.Off = op.Off
	r.Len = op.Len
	if r.Len == 0 {
		r.Len = pool.PageSize
	}
	r.Tenant = op.Tenant
	switch {
	case r.Off < 0:
		return r, fmt.Errorf("off %d negative", r.Off)
	case r.Len < 0:
		return r, fmt.Errorf("len %d negative", r.Len)
	case r.Off+int64(r.Len) > s.capacity:
		return r, fmt.Errorf("[%d, %d) beyond pool capacity %d", r.Off, r.Off+int64(r.Len), s.capacity)
	case r.Tenant < 0:
		return r, fmt.Errorf("tenant %d negative", r.Tenant)
	case op.DeadlineUS < 0:
		return r, fmt.Errorf("deadline %v us negative", op.DeadlineUS)
	}
	r.Deadline = usToDuration(op.DeadlineUS)
	return r, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// offer hands one submission to the loop; false means the loop is gone.
func (s *Server) offer(sub *submission) bool {
	select {
	case s.subs <- sub:
		return true
	case <-s.done:
		return false
	}
}

// handleSubmit: POST /v1/submit[?wait=1] with one Op body. Async admits
// answer 202 immediately; wait=1 blocks for the terminal outcome and maps
// it onto the status code (200/429/503/504/500).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var op Op
	if err := json.NewDecoder(r.Body).Decode(&op); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad op: " + err.Error()})
		return
	}
	req, err := s.parseOp(op)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errDraining.Error()})
		return
	}
	sub := &submission{req: req, seq: op.Seq, wait: r.URL.Query().Get("wait") == "1",
		resp: make(chan subResult, 1)}
	if !s.offer(sub) {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errDraining.Error()})
		return
	}
	var res subResult
	select {
	case res = <-sub.resp:
	case <-s.done:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errDraining.Error()})
		return
	}
	switch {
	case errors.Is(res.err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: res.err.Error()})
	case res.err != nil:
		writeJSON(w, errStatus(res.err), errResult(res.id, op.Seq, res.err))
	case res.comp != nil:
		writeJSON(w, outcomeStatus(res.comp.Outcome), resultOf(*res.comp, op.Seq))
	default:
		writeJSON(w, http.StatusAccepted, Result{ID: res.id, Seq: op.Seq, Status: "accepted"})
	}
}

// maxStreamOps bounds one /v1/stream batch so a single request cannot pin
// unbounded memory in the fan-in channel.
const maxStreamOps = 1 << 16

// handleStream: POST /v1/stream with a JSON-lines body of Ops. Every op is
// submitted sync; the response is a JSON-lines stream of Results in
// completion order (correlate with Seq; ops with Seq 0 get their 1-based
// input position), closed by a StreamSummary line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	var ops []Op
	for {
		var op Op
		if err := dec.Decode(&op); err == io.EOF {
			break
		} else if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad op stream: " + err.Error()})
			return
		}
		if len(ops) >= maxStreamOps {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("stream exceeds %d ops", maxStreamOps)})
			return
		}
		ops = append(ops, op)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	sum := StreamSummary{Summary: true, Ops: len(ops)}

	// One shared fan-in channel sized for the whole batch, so the sim loop
	// never blocks delivering a result.
	results := make(chan subResult, len(ops))
	outstanding := 0
	for i, op := range ops {
		req, err := s.parseOp(op)
		if err != nil {
			sum.Invalid++
			enc.Encode(Result{Seq: op.Seq, Status: "invalid", Error: err.Error()})
			continue
		}
		seq := op.Seq
		if seq == 0 {
			seq = i + 1
		}
		if !s.offer(&submission{req: req, seq: seq, wait: true, resp: results}) {
			sum.Failed++
			enc.Encode(Result{Seq: seq, Status: "failed", Error: errDraining.Error()})
			continue
		}
		outstanding++
	}
	for ; outstanding > 0; outstanding-- {
		var res subResult
		select {
		case res = <-results:
		case <-s.done:
			res = subResult{err: errDraining}
		}
		var line Result
		switch {
		case res.comp != nil:
			line = resultOf(*res.comp, res.seq)
		case res.err != nil:
			line = errResult(res.id, res.seq, res.err)
		}
		switch line.Status {
		case "completed":
			sum.Completed++
		case "shed":
			sum.Shed++
		case "expired":
			sum.Expired++
		case "throttled":
			sum.Throttled++
		default:
			sum.Failed++
		}
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(sum)
}

// handlePoll: GET /v1/poll?max=N drains up to N (default: all) buffered
// async completions as JSON lines, oldest first.
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	max := 0
	if q := r.URL.Query().Get("max"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad max: " + q})
			return
		}
		max = n
	}
	var recs []pool.Completion
	ok := s.call(func() {
		n := len(s.ring)
		if max > 0 && max < n {
			n = max
		}
		recs = make([]pool.Completion, n)
		copy(recs, s.ring)
		rest := copy(s.ring, s.ring[n:])
		s.ring = s.ring[:rest]
	})
	if !ok {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errDraining.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	for _, c := range recs {
		enc.Encode(resultOf(c, 0))
	}
}

// handleStats: GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var st Stats
	if !s.call(func() { st = s.statsLocked() }) {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errDraining.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealthz: GET /v1/healthz — 200 while serving, 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "serving"})
}

// handleShutdown: POST /v1/shutdown drains the plane and answers with the
// final DrainReport; the sim loop exits once the report is built. A report
// whose Health is not "ok" answers 500 so scripted clients fail loudly.
func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Shutdown()
	if err != nil && rep.Health == "" {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	status := http.StatusOK
	if rep.Health != "ok" {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, rep)
}
