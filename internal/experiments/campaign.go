package experiments

import (
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/pool"
)

// Outcome is what a campaign point reads off its plane once the run has
// drained: the plane's terminal-outcome ledger (Completed, Shed, Expired,
// Failed, WritesLost, ...) and its request-latency histogram. Every
// campaign point embeds one, so the campaign totals are written once, on
// Campaign.
type Outcome struct {
	pool.Ledger
	Lat *metrics.Histogram
}

// Availability returns completed over submitted (0 before any request).
func (o Outcome) Availability() float64 {
	if o.Submitted == 0 {
		return 0
	}
	return float64(o.Completed) / float64(o.Submitted)
}

// outcome lets Campaign read the Outcome any row embeds.
func (o Outcome) outcome() Outcome { return o }

// Campaign is a campaign table: one row per point, each embedding the
// point's Outcome.
type Campaign[P interface{ outcome() Outcome }] struct {
	Rows []P
}

// Points returns the campaign size.
func (c Campaign[P]) Points() int { return len(c.Rows) }

// AckedLostTotal sums the write-conservation residual across the campaign:
// writes admitted but neither acked nor ended typed. The robustness claim
// is that it is zero at every point.
func (c Campaign[P]) AckedLostTotal() uint64 {
	return total(c.Rows, func(p P) uint64 { return p.outcome().WritesLost() })
}

// ShedTotal and ExpiredTotal sum the overload outcomes across the campaign.
func (c Campaign[P]) ShedTotal() uint64 {
	return total(c.Rows, func(p P) uint64 { return p.outcome().Shed })
}

func (c Campaign[P]) ExpiredTotal() uint64 {
	return total(c.Rows, func(p P) uint64 { return p.outcome().Expired })
}

// MinAvailability returns the campaign's worst per-point availability (0
// for an empty campaign).
func (c Campaign[P]) MinAvailability() float64 {
	if len(c.Rows) == 0 {
		return 0
	}
	min := 1.0
	for _, p := range c.Rows {
		if a := p.outcome().Availability(); a < min {
			min = a
		}
	}
	return min
}

// total sums f over rows; the campaign-specific totals use it too.
func total[P any, N int | uint64](rows []P, f func(P) N) N {
	var t N
	for _, p := range rows {
		t += f(p)
	}
	return t
}

// count returns how many rows match.
func count[P any](rows []P, match func(P) bool) int {
	n := 0
	for _, p := range rows {
		if match(p) {
			n++
		}
	}
	return n
}
