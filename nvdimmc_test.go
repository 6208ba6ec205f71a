package nvdimmc

import (
	"bytes"
	"strings"
	"testing"

	"nvdimmc/internal/experiments"
)

func TestPublicAPISmoke(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("public api")
	done := false
	sys.Store(0, msg, func() {
		got := make([]byte, len(msg))
		sys.Load(0, got, func() {
			if string(got) != string(msg) {
				t.Error("round trip mismatch")
			}
			done = true
		})
	})
	if err := sys.RunUntil(func() bool { return done }, Milliseconds(100)); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineSmoke(t *testing.T) {
	if d := NewBaseline(); d.Capacity() != 128<<30 {
		t.Fatalf("baseline capacity = %d", d.Capacity())
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	names := ExperimentNames()
	// Every listed experiment carries a usable one-line description.
	for _, e := range ExperimentList() {
		if e.Desc == "" {
			t.Fatalf("experiment %q has no description", e.Name)
		}
	}
	// The registry must cover every table and figure of the evaluation.
	for _, want := range []string{"table1", "table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "aging", "mixed", "lru", "windows", "pool"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("evaluation item %q not covered", want)
		}
	}
}

func TestTablesRender(t *testing.T) {
	var buf bytes.Buffer
	m := Experiments(ExperimentOptions{Quick: true, Out: &buf})
	if err := m["table1"](); err != nil {
		t.Fatal(err)
	}
	if err := m["table2"](); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Xeon Platinum 8168", "Z-NAND", "FIO", "TPC-H", "STREAM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables missing %q", want)
		}
	}
}

func TestDurationHelpers(t *testing.T) {
	if Microseconds(1) != Nanoseconds(1000) || Milliseconds(1) != Microseconds(1000) {
		t.Fatal("duration helpers inconsistent")
	}
}

func TestWindowsHarnessViaRegistry(t *testing.T) {
	var buf bytes.Buffer
	m := Experiments(ExperimentOptions{Quick: true, Out: &buf})
	if err := m["windows"](); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "46.8") {
		t.Fatal("windows harness did not print the §V-A minima")
	}
	_ = experiments.Options{}
}

// lossStub is a campaign result with the given point count and loss.
type lossStub struct {
	points int
	lost   uint64
}

func (l lossStub) Points() int            { return l.points }
func (l lossStub) AckedLostTotal() uint64 { return l.lost }

// TestGateErrorsNameNoExperiment: a failed gate's error names no
// experiment, since every caller prefixes the name, so nvdimmc-bench
// prints each failure with one prefix ("nvdimmc-bench: aging: 2
// inconsistencies, ..."). A passing result passes every gate.
func TestGateErrorsNameNoExperiment(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"aging", agingGate(experiments.AgingResult{Inconsistencies: 2, Collisions: 1}),
			"2 inconsistencies, 1 bus collisions, 0 refresh-detector false positives; the paper reports none"},
		{"mixed", mixedGate(experiments.MixedLoadResult{Transactions: 9, ValidationFailures: 1}),
			"1 validation failures in 9 transactions; the paper reports zero corruption"},
		{"crash", crashGate(&experiments.CrashResult{Seed: 0x2a, Failures: []string{"lost"}}),
			"1 acked writes lost (seed 0x2a)"},
		{"conformance", conformanceGate(&experiments.ConformanceResult{Seed: 0x2a, Failures: []string{"REPRO: seed=1"}}),
			"1 protocol violation(s) (seed 0x2a); first: REPRO: seed=1"},
		{"numa", lossGate(lossStub{points: 4, lost: 3}), "3 acked writes lost across 4 points"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s gate: %v, want %q", c.name, c.err, c.want)
		}
	}
	for _, err := range []error{
		agingGate(experiments.AgingResult{Iterations: 3}),
		mixedGate(experiments.MixedLoadResult{Transactions: 9}),
		crashGate(&experiments.CrashResult{}),
		conformanceGate(&experiments.ConformanceResult{}),
		lossGate(lossStub{points: 4}),
	} {
		if err != nil {
			t.Errorf("passing result failed its gate: %v", err)
		}
	}
}
