package report

import (
	"strings"
	"testing"
)

func TestLinePlot(t *testing.T) {
	var sb strings.Builder
	Line(&sb, "bw", []float64{0, 0.5, 1}, []float64{10, 20, 5}, 4, "MB/s")
	out := sb.String()
	if !strings.Contains(out, "bw") || !strings.Contains(out, "#") {
		t.Fatalf("line output:\n%s", out)
	}
	// Empty series must not panic.
	sb.Reset()
	Line(&sb, "empty", nil, nil, 4, "")
	if !strings.Contains(sb.String(), "no data") {
		t.Fatal("empty series not flagged")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline runes: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
	flat := Sparkline([]float64{0, 0})
	if len([]rune(flat)) != 2 {
		t.Fatalf("flat sparkline: %q", flat)
	}
}
