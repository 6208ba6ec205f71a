package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

// runMainArg, as the test binary's first argument, makes TestMain run the
// command itself on the remaining arguments instead of the tests.
const runMainArg = "-run-nvdimmc-sim"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cliGolden are the documented fault runs, pooled and fabric, covering
// every fault kind; each one's stdout is testdata/golden/<name>.txt.
var cliGolden = []struct{ name, args string }{
	{"pool-program", "-channels 3 -spares 1 -faults m0:program:1 -rw randwrite -ops 400"},
	{"pool-mediaread-dietimeout", "-channels 2 -faults m0:mediaread:5,m1:dietimeout:0 -ops 900"},
	{"pool-ackdrop", "-channels 2 -faults m1:ackdrop:1 -rw randwrite -ops 900"},
	{"fabric-kill", "-sockets 3 -channels 2 -rate 1.5e6 -rw randwrite -ops 800 -faults s1:program:1"},
	{"fabric-link", "-sockets 2 -xlat 900 -xbw 4 -rate 1e6 -ops 500 -faults s0:link:8"},
	{"fabric-slow", "-sockets 2 -channels 2 -rate 1e6 -ops 500 -faults s1:slow:1"},
}

// TestCLIGolden re-executes the command on each golden run and
// byte-compares its stdout with the recorded file; -update rewrites the
// files instead.
func TestCLIGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("recorded on amd64; Go fuses multiply-add (FMA) on %s, which moves float results", runtime.GOARCH)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cliGolden {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(exe, append([]string{runMainArg}, strings.Fields(c.args)...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("nvdimmc-sim %s: %v\n%s", c.args, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("nvdimmc-sim %s: stdout differs from %s\ngot:\n%s", c.args, path, got)
			}
		})
	}
}
