package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvdimmc/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace file")

// goldenSink captures the full event stream as rendered lines.
type goldenSink struct{ lines []string }

func (g *goldenSink) Record(e *trace.Event) { g.lines = append(g.lines, e.String()) }

// TestGoldenReadMissTrace pins the canonical read-miss sequence — CP fetch
// command, refresh window, in-window NVMC data movement, ack — byte for
// byte against testdata/read_miss_trace.golden. The simulation is fully
// deterministic, so any diff here is a real protocol or timing change: if
// it is intentional, regenerate with
//
//	go test ./internal/core -run TestGoldenReadMissTrace -update
//
// and review the diff like code.
func TestGoldenReadMissTrace(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = 0x60D7
	s := mustSystem(t, cfg)

	// Put a page on the media so the access is a full CP cachefill.
	prewriteMedia(t, s, 5, pattern(0xC3, PageSize))

	sink := &goldenSink{}
	s.AttachSink(sink)
	if got := loadSync(t, s, 5*PageSize, PageSize); !bytes.Equal(got, pattern(0xC3, PageSize)) {
		t.Fatal("miss returned wrong data")
	}
	got := strings.Join(sink.lines, "\n") + "\n"

	// The trace must contain the full §IV-C sequence in order.
	idx := -1
	for _, want := range []string{"cp-cmd", "window", "nvmc-data", "cp-ack"} {
		at := strings.Index(got[idx+1:], want)
		if at < 0 {
			t.Fatalf("trace missing %q after offset %d:\n%s", want, idx, got)
		}
		idx += 1 + at
	}

	path := filepath.Join("testdata", "read_miss_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", path, len(sink.lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(want) != got {
		t.Fatalf("trace drifted from %s — timing or protocol change; if intentional, re-run with -update\n--- want\n%s--- got\n%s",
			path, want, got)
	}

	if err := s.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}
