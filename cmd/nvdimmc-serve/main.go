// Command nvdimmc-serve runs the pool's async request plane as a network
// service, drives load at one, or replays a captured trace offline.
//
// Serve (default):
//
//	nvdimmc-serve [-listen ADDR] [-channels N] [-dimms N] [-spares N]
//	              [-interleave BYTES] [-workers N] [-seed N] [-small]
//	              [-admission block|shed-newest|shed-oldest|deadline-aware]
//	              [-pendingcap N] [-lockstep]
//	              [-capture FILE] [-capture-format text|binary]
//
// Starts the HTTP/JSON service (endpoints under /v1/: submit, stream, poll,
// stats, healthz, shutdown). -capture tees every offered request into a
// trace replayable bit-exact with -replay. SIGINT/SIGTERM drains
// gracefully; the exit status reflects the final conservation audit.
//
// Load generation:
//
//	nvdimmc-serve -loadgen URL [-clients N] [-ops N] [-write-pct N]
//	              [-tenants N] [-wait-every N] [-stream-every N]
//	              [-deadline-us F] [-seed N] [-shutdown]
//
// Drives N concurrent clients at a running service and verifies the
// conservation equation end to end; -shutdown then drains the service and
// checks its final audit. Exit status is nonzero on any violation.
//
// Replay:
//
//	nvdimmc-serve -replay FILE [-limit N] [pool geometry flags as above]
//
// Replays a captured trace through an offline pool (no HTTP) and prints the
// final stats. Deterministic: byte-identical at any -workers (which only
// builds and prefills members concurrently) and with -lockstep on or off.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nvdimmc/internal/core"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/replay"
	"nvdimmc/internal/server"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8383", "serve: listen address")
		channels = flag.Int("channels", 3, "pool channels")
		dimms    = flag.Int("dimms", 1, "DIMMs per channel")
		spares   = flag.Int("spares", 0, "hot-spare members")
		interlv  = flag.Int64("interleave", 4096, "stripe granularity in bytes")
		workers  = flag.Int("workers", 0, "member build/prefill workers (0: GOMAXPROCS; output identical at any count)")
		seed     = flag.Uint64("seed", 7, "pool / loadgen seed")
		small    = flag.Bool("small", false, "shrunken members (1 MB cache) for demos and smoke tests")
		admit    = flag.String("admission", "block", "admission policy: block | shed-newest | shed-oldest | deadline-aware")
		pcap     = flag.Int("pendingcap", 0, "per-channel admission-held cap under shedding policies (0: default)")
		lockstep = flag.Bool("lockstep", false, "disable the lookahead epoch scheduler (output is byte-identical either way)")
		prefill  = flag.Int("prefill", -1, "prefill pages per member (-1: 90% of cache slots)")

		capturePath = flag.String("capture", "", "serve: record every offered request to this trace file")
		captureFmt  = flag.String("capture-format", "binary", "capture trace format: text | binary")

		loadgen     = flag.String("loadgen", "", "drive load at this service URL instead of serving")
		clients     = flag.Int("clients", 32, "loadgen: concurrent clients")
		ops         = flag.Int("ops", 64, "loadgen: ops per client")
		writePct    = flag.Int("write-pct", 50, "loadgen: write percentage")
		tenants     = flag.Int("tenants", 1, "loadgen: tenant IDs to spread clients over")
		waitEvery   = flag.Int("wait-every", 4, "loadgen: every Nth op submits sync (0: all async)")
		streamEvery = flag.Int("stream-every", 0, "loadgen: every Nth client batches via /v1/stream (0: none)")
		deadlineUS  = flag.Float64("deadline-us", 0, "loadgen: per-op relative deadline in microseconds (0: none)")
		shutdown    = flag.Bool("shutdown", false, "loadgen: drain the service afterwards and verify its final audit")

		replayPath = flag.String("replay", "", "replay this trace through an offline pool instead of serving")
		limit      = flag.Int("limit", 0, "replay: stop after N records (0: whole trace)")
	)
	flag.Parse()

	switch {
	case *loadgen != "":
		os.Exit(runLoadgen(*loadgen, server.LoadConfig{
			Clients: *clients, Ops: *ops, WritePct: *writePct, Tenants: *tenants,
			WaitEvery: *waitEvery, StreamEvery: *streamEvery,
			DeadlineUS: *deadlineUS, Seed: *seed,
		}, *shutdown))
	case *replayPath != "":
		os.Exit(runReplay(*replayPath, *limit, poolConfig(*channels, *dimms, *spares, *interlv,
			*workers, *seed, *small, *admit, *pcap, *lockstep, *prefill)))
	default:
		os.Exit(runServe(*listen, *capturePath, *captureFmt, poolConfig(*channels, *dimms, *spares,
			*interlv, *workers, *seed, *small, *admit, *pcap, *lockstep, *prefill)))
	}
}

func poolConfig(channels, dimms, spares int, interleave int64, workers int, seed uint64,
	small bool, admit string, pendingCap int, lockstep bool, prefill int) pool.Config {
	member := core.DefaultConfig()
	if small {
		member.CacheBytes = 1 << 20
		member.NAND.BlocksPerDie = 32
		member.NAND.PagesPerBlock = 16
	}
	policy, err := pool.ParseAdmissionPolicy(admit)
	if err != nil {
		fatal(err)
	}
	return pool.Config{
		Channels:         channels,
		DIMMsPerChannel:  dimms,
		Spares:           spares,
		Interleave:       interleave,
		Member:           member,
		Workers:          workers,
		Seed:             seed,
		PrefillPages:     prefill,
		Admission:        policy,
		PendingCap:       pendingCap,
		DisableLookahead: lockstep,
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nvdimmc-serve: %v\n", err)
	os.Exit(2)
}

func runServe(listen, capturePath, captureFmt string, pcfg pool.Config) int {
	cfg := server.Config{Pool: pcfg}
	var rec *replay.Recorder
	if capturePath != "" {
		f, err := os.Create(capturePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		format := replay.Binary
		if captureFmt == "text" {
			format = replay.Text
		} else if captureFmt != "binary" {
			fatal(fmt.Errorf("capture format %q: want text | binary", captureFmt))
		}
		w, err := replay.NewWriter(f, format)
		if err != nil {
			fatal(err)
		}
		rec = replay.NewRecorder(w)
		cfg.Capture = rec.Record
	}

	s, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Addr: listen, Handler: s.Handler()}
	fmt.Printf("nvdimmc-serve: serving on http://%s (admission %s, %d channels x %d DIMMs)\n",
		listen, pcfg.Admission, pcfg.Channels, pcfg.DIMMsPerChannel)

	// SIGINT/SIGTERM drain the plane exactly like POST /v1/shutdown.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-sigs:
			fmt.Printf("nvdimmc-serve: %v: draining\n", sig)
			s.Shutdown()
		case <-s.Done():
		}
	}()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	select {
	case err := <-serveErr:
		fatal(err) // bind failure etc.: the sim loop never drained
	case <-s.Done():
	}
	// Let in-flight responses (the /v1/shutdown report itself) finish.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(ctx)
	cancel()

	code := 0
	if err := s.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "nvdimmc-serve: final audit: %v\n", err)
		code = 1
	} else {
		fmt.Println("nvdimmc-serve: drained clean, conservation audit ok")
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "nvdimmc-serve: capture: %v\n", err)
			code = 1
		} else {
			fmt.Printf("nvdimmc-serve: captured %d requests to %s\n", rec.Records(), capturePath)
		}
	}
	return code
}

func runLoadgen(base string, cfg server.LoadConfig, shutdown bool) int {
	cfg.Base = base
	rep, err := server.LoadGen(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loadgen: %d clients x %d ops: sent=%d accepted=%d completed=%d shed=%d expired=%d failed=%d throttled=%d polled=%d\n",
		cfg.Clients, cfg.Ops, rep.Sent, rep.Accepted, rep.Completed, rep.Shed,
		rep.Expired, rep.Failed, rep.Throttled, rep.Polled)
	st := rep.Final
	fmt.Printf("server: submitted=%d terminal=%d completed=%d shed=%d expired=%d failed=%d throttled=%d p50=%.2fus p99=%.2fus\n",
		st.Submitted, st.Terminal, st.Completed, st.Shed, st.Expired, st.Failed,
		st.Throttled, st.LatP50US, st.LatP99US)
	code := 0
	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d conservation violations:\n  %s\n",
			len(rep.Violations), strings.Join(rep.Violations, "\n  "))
		code = 1
	} else {
		fmt.Println("loadgen: conservation verified end to end")
	}
	if shutdown {
		c := &server.Client{Base: base}
		drain, err := c.Shutdown()
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: shutdown: %v\n", err)
			return 1
		}
		fmt.Printf("shutdown: health=%s submitted=%d terminal=%d\n",
			drain.Health, drain.Stats.Submitted, drain.Stats.Terminal)
		if drain.Health != "ok" {
			return 1
		}
	}
	return code
}

func runReplay(path string, limit int, pcfg pool.Config) int {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	rd, err := replay.NewReader(f)
	if err != nil {
		fatal(err)
	}
	p, err := pool.New(pcfg)
	if err != nil {
		fatal(err)
	}
	st, err := replay.Drive(p, rd, limit)
	if err != nil {
		fatal(err)
	}
	if err := p.CheckHealth(); err != nil {
		fmt.Fprintf(os.Stderr, "nvdimmc-serve: replay audit: %v\n", err)
		return 1
	}
	ps := p.Stats()
	fmt.Printf("replay: %s format, %d ops (%d retimed)\n", rd.Format(), st.Ops, st.Retimed)
	fmt.Printf("replay: submitted=%d completed=%d shed=%d expired=%d failed=%d throttled=%d epochs=%d\n",
		ps.Submitted, ps.Completed, ps.Shed, ps.Expired, ps.Failed, ps.Throttled, ps.Epochs)
	fmt.Printf("replay: lat mean=%v p50=%v p99=%v max=%v writes acked=%d\n",
		ps.Lat.Mean(), ps.Lat.Percentile(50), ps.Lat.Percentile(99), ps.Lat.Max(), ps.WritesAcked)
	return 0
}
