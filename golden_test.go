package nvdimmc

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's -quick output")

// lockstepGolden lists the pooled experiments whose -lockstep output must
// match the same golden files as their lookahead runs.
var lockstepGolden = []string{"pool", "faultpool", "overload", "qos", "numa", "replay"}

// TestGoldenOutput is the specification check: every experiment's -quick
// stdout (`nvdimmc-bench -quick <name>`) must be byte-identical to
// testdata/golden/<name>.txt, and the pooled experiments must match the
// same files with the lookahead scheduler off. service is left out: its
// HTTP interleaving varies run to run. `go test -run TestGoldenOutput
// -update` rewrites the files; a rewrite needs a reason for every file
// that moves.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("golden: runs every -quick experiment (~12 s); skipped under -short")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden: recorded on amd64; Go fuses multiply-add (FMA) on %s, which moves float results", runtime.GOARCH)
	}
	for _, name := range ExperimentNames() {
		if name == "service" {
			continue
		}
		t.Run(name, func(t *testing.T) { checkGolden(t, name, false) })
	}
	for _, name := range lockstepGolden {
		t.Run(name+"-lockstep", func(t *testing.T) { checkGolden(t, name, true) })
	}
}

// checkGolden runs one experiment at -quick and byte-compares its output
// with the golden file, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, lockstep bool) {
	var out bytes.Buffer
	run := Experiments(ExperimentOptions{Quick: true, Out: &out, Parallel: 2, DisableLookahead: lockstep})[name]
	if err := run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update && !lockstep {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create it)", name, err)
	}
	if line, w, g, differ := firstDiff(string(want), out.String()); differ {
		t.Errorf("%s (lockstep=%v): output differs from %s at line %d\n  want: %q\n  got:  %q",
			name, lockstep, path, line, w, g)
	}
}

// firstDiff returns the first line (1-based) at which got differs from
// want, with both versions of it; a missing line reads as "".
func firstDiff(want, got string) (line int, w, g string, differ bool) {
	if want == got {
		return 0, "", "", false
	}
	ws, gs := strings.SplitAfter(want, "\n"), strings.SplitAfter(got, "\n")
	for i := 0; ; i++ {
		if i < len(ws) {
			w = ws[i]
		} else {
			w = ""
		}
		if i < len(gs) {
			g = gs[i]
		} else {
			g = ""
		}
		if w != g {
			return i + 1, w, g, true
		}
	}
}
