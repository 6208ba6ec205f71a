package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainArg, as the test binary's first argument, makes TestMain run the
// command itself on the remaining arguments instead of the tests.
const runMainArg = "-run-nvdimmc-serve"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCaptureFormatKeepsFile: an unknown -capture-format exits 2 before
// the capture file is opened, so an existing file keeps its contents.
func TestBadCaptureFormatKeepsFile(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "keep.trace")
	const content = "an earlier capture.\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, runMainArg, "-small", "-listen", "127.0.0.1:0",
		"-capture", path, "-capture-format", "jsonl")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), `capture format "jsonl"`) {
		t.Errorf("exit %v, stderr %q; want exit 2 naming the format", err, stderr.String())
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != content {
		t.Errorf("capture file after the refused run: %q, %v; want %q unchanged", got, err, content)
	}
}
