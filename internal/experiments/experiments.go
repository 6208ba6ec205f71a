// Package experiments contains one harness per table and figure of the
// paper's evaluation (§VI–§VII). Each harness assembles the right scaled
// system(s), runs the workload, and returns a result struct that carries the
// paper's reported numbers next to the measured ones; Print renders the
// side-by-side rows EXPERIMENTS.md records. Absolute magnitudes come from a
// simulator, so the acceptance criterion everywhere is the *shape*: who
// wins, by roughly what factor, where the knees fall.
package experiments

import (
	"fmt"
	"io"

	"nvdimmc/internal/core"
)

// PageSize is the 4 KB unit used throughout.
const PageSize = 4096

// Options control experiment scale.
type Options struct {
	// Quick shrinks run lengths for CI; the full runs are the defaults the
	// committed EXPERIMENTS.md numbers come from.
	Quick bool
	// Out receives the printed rows (nil discards).
	Out io.Writer
	// Parallel caps how many independent sim instances a shardable
	// experiment (crash sweep, fig9, fig11, fig13) runs concurrently; 0 or 1
	// is serial. Shards never print — results are merged and printed in
	// canonical shard order — so output is byte-identical at any setting.
	Parallel int
	// Headline, when non-nil, receives (name, value) headline metrics from
	// the façade after each experiment, for machine-readable snapshots
	// (cmd/nvdimmc-bench -json). Called from the merge step only, never from
	// a shard goroutine.
	Headline func(name string, value float64)
	// DisableLookahead runs the pooled experiments (pool, faultpool,
	// overload) with the pool's lookahead epoch scheduler off: every member
	// advances event by event and every epoch runs its full boundary body.
	// Output is byte-identical either way — the knob exists so CI and the
	// contract tests can prove exactly that (nvdimmc-bench -lockstep).
	DisableLookahead bool
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

func (o Options) pick(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// workers returns the shard-pool width runShards should use.
func (o Options) workers() int {
	if o.Parallel < 1 {
		return 1
	}
	return o.Parallel
}

func (o Options) printf(format string, args ...interface{}) {
	fmt.Fprintf(o.out(), format, args...)
}

// nvdcConfig returns the scaled NVDIMM-C system configuration shared by the
// fio experiments: 16 MB cache standing in for 16 GB, NAND sized by
// mediaBlocksPerDie.
func nvdcConfig(mediaBlocksPerDie int) core.Config {
	cfg := core.DefaultConfig()
	if mediaBlocksPerDie > 0 {
		cfg.NAND.BlocksPerDie = mediaBlocksPerDie
	}
	return cfg
}

// Row is one paper-vs-measured line.
type Row struct {
	Name     string
	Paper    float64
	Measured float64
	Unit     string
}

// Ratio returns measured/paper (0 if paper value unknown).
func (r Row) Ratio() float64 {
	if r.Paper == 0 {
		return 0
	}
	return r.Measured / r.Paper
}

func printRows(o Options, title string, rows []Row) {
	o.printf("== %s ==\n", title)
	for _, r := range rows {
		if r.Paper != 0 {
			o.printf("  %-42s paper %10.1f %-6s measured %10.1f  (x%.2f)\n",
				r.Name, r.Paper, r.Unit, r.Measured, r.Ratio())
		} else {
			o.printf("  %-42s %31s measured %10.1f %s\n", r.Name, "", r.Measured, r.Unit)
		}
	}
}
