package experiments

import (
	"fmt"
	"net"
	"net/http"

	"nvdimmc/internal/pool"
	"nvdimmc/internal/server"
	"nvdimmc/internal/sim"
)

// The service campaign exercises the network front-end the way a deployment
// would: a real HTTP server on a loopback socket, 32 concurrent clients
// hammering it with mixed sync/async/streamed traffic, one point per
// admission policy. Real goroutines and real sockets make per-point latency
// and shed mixes nondeterministic — what the campaign pins down instead is
// the conservation contract: every op a client sent is accounted for in the
// server's counters, no acked write is ever lost, and the drain audit comes
// back clean. Points run serially (each owns the socket and the CPU's
// goroutine budget); the HTTP interleaving inside a point is free to vary.

// servicePolicies are the admission policies under test, one point each.
// The deadline-aware point attaches a per-op budget so expiries join the
// outcome mix.
var servicePolicies = []struct {
	Policy     pool.AdmissionPolicy
	PendingCap int
	DeadlineUS float64
}{
	{pool.AdmitBlock, 0, 0},
	{pool.AdmitShedNewest, 48, 0},
	{pool.AdmitDeadlineAware, 48, 2000},
}

// ServicePoint is one policy's end-to-end run.
type ServicePoint struct {
	Policy   pool.AdmissionPolicy
	Clients  int
	Ops      int // total ops sent (clients x per-client ops)
	Sent     int
	Accepted int
	// Outcome holds the terminal mix as the server retired it (no latency
	// histogram crosses the wire: P99US is the server's p99). Its
	// WritesLost is the writes-conservation residual and must be 0.
	Outcome
	Polled  int
	Dropped uint64
	P99US   float64
	Health  string
	// Violations are the load generator's conservation breaches. Must be
	// empty.
	Violations []string
}

// ServiceResult is the campaign table.
type ServiceResult struct {
	Clients int
	Campaign[ServicePoint]
}

// OpsTotal sums ops sent across points.
func (r ServiceResult) OpsTotal() int {
	return total(r.Rows, func(p ServicePoint) int { return p.Ops })
}

// ViolationTotal counts conservation breaches across every point.
func (r ServiceResult) ViolationTotal() int {
	return total(r.Rows, func(p ServicePoint) int { return len(p.Violations) })
}

// servicePoint boots a server on an ephemeral loopback port, drives the
// concurrent load at it over real HTTP, then drains it and audits.
func servicePoint(o Options, pt, clients, opsPer int) (ServicePoint, error) {
	pol := servicePolicies[pt]
	row := ServicePoint{Policy: pol.Policy, Clients: clients, Ops: clients * opsPer}

	// The replay campaign's pool shape (no spare, no fault armed) under
	// this point's admission policy.
	cfg := campaignPoint("", overloadMemberCfg(), sim.SplitSeed(29, fmt.Sprintf("service/%d", pt)), 0, 0, o.DisableLookahead).Pool
	cfg.Workers, cfg.Spares = o.workers(), 0
	cfg.Admission, cfg.PendingCap = pol.Policy, pol.PendingCap
	s, err := server.New(server.Config{Pool: cfg})
	if err != nil {
		return row, fmt.Errorf("service point %d (%v): %w", pt, pol.Policy, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return row, fmt.Errorf("service point %d: %w", pt, err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer func() {
		hs.Close()
		select {
		case <-s.Done():
		default:
			s.Shutdown()
		}
	}()
	base := "http://" + ln.Addr().String()

	rep, err := server.LoadGen(server.LoadConfig{
		Base:        base,
		Clients:     clients,
		Ops:         opsPer,
		WritePct:    50,
		Tenants:     4,
		WaitEvery:   4,
		StreamEvery: 8,
		DeadlineUS:  pol.DeadlineUS,
		Seed:        sim.SplitSeed(29, fmt.Sprintf("service/load/%d", pt)),
	})
	if err != nil {
		return row, fmt.Errorf("service point %d (%v): %w", pt, pol.Policy, err)
	}
	cl := &server.Client{Base: base}
	drain, err := cl.Shutdown()
	if err != nil {
		return row, fmt.Errorf("service point %d (%v): drain: %w", pt, pol.Policy, err)
	}

	st := drain.Stats
	row.Sent = rep.Sent
	row.Accepted = rep.Accepted
	row.Outcome = Outcome{Ledger: st.Ledger()}
	row.Polled = rep.Polled
	row.Dropped = st.PollDropped
	row.P99US = st.LatP99US
	row.Health = drain.Health
	row.Violations = rep.Violations
	return row, nil
}

// Service is the network-service conservation campaign: one in-process HTTP
// server per admission policy, 32 concurrent clients of mixed sync, async
// and streamed traffic, conservation checked from the client's ledger down
// to the pool's drain audit.
func Service(o Options) (ServiceResult, error) {
	const clients = 32 // the acceptance floor: never shrunk, even in quick mode
	opsPer := o.pick(48, 16)
	res := ServiceResult{Clients: clients}

	o.printf("== Service: %d concurrent HTTP clients x %d ops per admission policy ==\n", clients, opsPer)
	for pt := range servicePolicies {
		row, err := servicePoint(o, pt, clients, opsPer)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
		o.printf("  %-14v sent=%d accepted=%d completed=%d shed=%d expired=%d throttled=%d polled=%d dropped=%d p99=%.0fus health=%s violations=%d\n",
			row.Policy, row.Sent, row.Accepted, row.Completed, row.Shed, row.Expired,
			row.Throttled, row.Polled, row.Dropped, row.P99US, row.Health, len(row.Violations))
	}

	for _, row := range res.Rows {
		if len(row.Violations) > 0 {
			return res, fmt.Errorf("service (%v): %d conservation violations; first: %s",
				row.Policy, len(row.Violations), row.Violations[0])
		}
		if row.Health != "ok" {
			return res, fmt.Errorf("service (%v): drain audit: %s", row.Policy, row.Health)
		}
		if row.Sent != row.Ops {
			return res, fmt.Errorf("service (%v): sent %d of %d ops (client-side refusals or transport errors)",
				row.Policy, row.Sent, row.Ops)
		}
		if lost := row.WritesLost(); lost != 0 {
			return res, fmt.Errorf("service (%v): writes-conservation residual %d", row.Policy, int64(lost))
		}
	}
	o.printf("  %d/%d points: conservation holds end to end, drain audits clean\n", res.Points(), res.Points())
	return res, nil
}
