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
	d, err := NewBaseline(BaselineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Capacity() != 128<<30 {
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
