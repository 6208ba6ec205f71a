// Command benchmark measures the simulator end to end and layer by layer.
//
// Each workload's inputs are generated from -seed and handed to the system
// only as generated inputs. A workload runs in fresh child processes of this
// binary, one rep each, until at least -reps reps and -seconds of measuring
// have passed; end-to-end metrics are the medians over those reps. With
// -trace 1 one more rep is CPU-profiled, its samples attributed to layers,
// and the per-layer metrics are reported. Every rep is checked for
// correctness; a failed check makes the run incorrect and the exit status 1.
//
// Usage, from this directory:
//
//	go run . [-workload NAME|all] [-seed N] [-seconds S] [-reps N] [-trace 0|1] [-out FILE]
//	go run . -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or with
// -trace 1 the per-layer ones. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		wname   = flag.String("workload", "all", "workload: "+strings.Join(names, ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 5, "measure each workload for at least this many seconds")
		reps    = flag.Int("reps", 3, "measure each workload at least this many times, each in a fresh child process")
		trace   = flag.Int("trace", 0, "1: add one CPU-profiled rep and report the per-layer metrics")
		out     = flag.String("out", "", "also write the results as JSON to this file")
		compare = flag.Bool("compare", false, "compare two results files under BENCHMARK.json's bounds: -compare A.json B.json")
		child   = flag.Bool("child", false, "run one rep in this process and print it as JSON (used by the parent)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two results files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "benchmark: -trace %d: want 0 or 1\n", *trace)
		return 2
	}
	todo := workloads
	if *wname != "all" {
		w, ok := findWorkload(*wname)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s or all)\n", *wname, strings.Join(names, ", "))
			return 2
		}
		todo = []workload{w}
	}
	if *child {
		if len(todo) != 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -child needs one -workload")
			return 2
		}
		r, err := runRep(todo[0], *seed, 1, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	var results []*result
	for _, w := range todo {
		res := measure(exe, w, *seed, *seconds, *reps, *trace == 1)
		printResult(res)
		results = append(results, res)
	}
	if *out != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: write %s: %v\n", *out, err)
			return 1
		}
	}
	return printSummary(results, *trace == 1)
}

func printResult(res *result) {
	fmt.Printf("== %s  seed %d  correct=%v  attempted=%d  failed=%d\n",
		res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	for _, d := range allMetrics() {
		v, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		spread := ""
		if xs := res.Reps[d.name]; len(xs) > 1 {
			q1, q3 := quartiles(xs)
			spread = fmt.Sprintf("  (%d reps, IQR %.1f%% of median)", len(xs), 100*ratio(q3-q1, v))
		}
		fmt.Printf("   %-30s %14.6g %-6s%s\n", d.name, v, d.unit, spread)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints the final JSON line: end-to-end metrics, or with
// trace the per-layer ones; several workloads prefix names with
// "<workload>/". It returns the exit status.
func printSummary(results []*result, trace bool) int {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, res := range results {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, d := range defs {
			name := d.name
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			line.Metrics[name] = metricValue{res.Metrics[d.name], d.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}
