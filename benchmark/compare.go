package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -compare and the smoke test
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root: the current
// directory or, from benchmark/, its parent.
func loadSpec() (*benchSpec, error) {
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		var b []byte
		if b, err = os.ReadFile(p); err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, err
}

func loadResults(path string) (map[string]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*result
	if err := json.Unmarshal(b, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]*result{}
	for _, r := range results {
		out[r.Workload] = r
	}
	return out, nil
}

// iqrShare is the distance between the quartiles as a share of the median.
func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// judge compares the reps of A (the parent) and B (the change) of one
// end-to-end metric. change is B's median against A's, positive when B is
// worse. When either side's spread exceeds the bound the verdict is
// "unresolved", unless every rep of B is on the same side of every rep of A
// and the medians differ by more than the bound.
func judge(a, b []float64, better string, bound float64) (verdict string, change, spread float64) {
	ma, mb := median(a), median(b)
	change = ratio(mb-ma, ma)
	if better == "higher" {
		change = -change
	}
	spread = math.Max(iqrShare(a), iqrShare(b))
	separated := func(worse bool) bool {
		for _, x := range a {
			for _, y := range b {
				bWorse := y < x
				if better != "higher" {
					bWorse = y > x
				}
				if bWorse != worse || x == y {
					return false
				}
			}
		}
		return true
	}
	switch {
	case change > bound && (spread <= bound || separated(true)):
		return "worse", change, spread
	case change < -bound && (spread <= bound || separated(false)):
		return "better", change, spread
	case spread > bound:
		return "unresolved", change, spread
	}
	return "ok", change, spread
}

// compareFiles prints one row per (workload, end-to-end metric) with the
// verdict under BENCHMARK.json's bounds, the deterministic per-layer
// values that differ, and the other per-layer metrics that moved. It
// returns 1 when a metric got worse or a deterministic value differs.
func compareFiles(aPath, bPath string) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: read bounds: %v\n", err)
		return 2
	}
	a, err := loadResults(aPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadResults(bPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	status := 0
	fmt.Printf("%-12s %-12s %28s %28s %8s %7s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse by", "spread", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range sp.EndToEnd {
			xa, xb := ra.Reps[m.Name], rb.Reps[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict, change, spread := judge(xa, xb, m.Better, m.Bound)
			if verdict == "worse" {
				status = 1
			}
			fmt.Printf("%-12s %-12s %28s %28s %7.1f%% %6.1f%%  %s (bound %.0f%%)\n",
				w.name, m.Name, quart(xa), quart(xb), 100*change, 100*spread, verdict, 100*m.Bound)
		}
	}
	fmt.Println()
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range perLayer {
			va, oka := ra.Metrics[d.name]
			vb, okb := rb.Metrics[d.name]
			if !oka || !okb {
				continue
			}
			switch {
			case d.src == exact && w.deterministic:
				// Other seeds are other inputs: only the same seed must match.
				if ra.Seed == rb.Seed && va != vb {
					status = 1
					fmt.Printf("%-12s %-30s %14.6g %14.6g  MISMATCH (deterministic)\n", w.name, d.name, va, vb)
				}
			case moved(d, va, vb):
				fmt.Printf("%-12s %-30s %14.6g %14.6g  moved %s\n", w.name, d.name, va, vb, movement(d, va, vb))
			}
		}
	}
	return status
}

// moved reports whether a per-layer metric changed enough to list: three
// points for a CPU share, 15% for anything else. Smaller moves are within
// what two runs of the same code show on a shared 2-core host.
func moved(d metricDef, a, b float64) bool {
	if d.unit == "%" {
		return math.Abs(b-a) >= 3
	}
	return math.Abs(ratio(b-a, a)) >= 0.15
}

func movement(d metricDef, a, b float64) string {
	if d.unit == "%" {
		return fmt.Sprintf("%+.1f points", b-a)
	}
	return fmt.Sprintf("%+.1f%%", 100*ratio(b-a, a))
}

func quart(xs []float64) string {
	q1, q3 := quartiles(xs)
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3))
}
