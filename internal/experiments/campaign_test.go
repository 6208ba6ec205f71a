package experiments

import (
	"errors"
	"strings"
	"testing"

	"nvdimmc/internal/core"
	"nvdimmc/internal/metrics"
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
)

// lat returns a histogram holding samples.
func lat(samples ...sim.Duration) *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, d := range samples {
		h.Record(d)
	}
	return h
}

// TestCampaignAccessors exercises the shared campaign totals on a
// hand-built table so the -short lane covers the façade's gate inputs
// without running a campaign.
func TestCampaignAccessors(t *testing.T) {
	var empty Campaign[OverloadPoint]
	if empty.Points() != 0 || empty.AckedLostTotal() != 0 || empty.MinAvailability() != 0 {
		t.Fatalf("empty campaign: points %d, lost %d, min availability %v",
			empty.Points(), empty.AckedLostTotal(), empty.MinAvailability())
	}
	c := Campaign[OverloadPoint]{Rows: []OverloadPoint{
		{Outcome: Outcome{Ledger: pool.Ledger{Submitted: 10, Completed: 6, Shed: 3, Expired: 1,
			WritesIn: 4, WritesAcked: 2, WritesShed: 1}}},
		{Outcome: Outcome{Ledger: pool.Ledger{Submitted: 4, Completed: 4, WritesIn: 2, WritesAcked: 2}}},
		{Outcome: Outcome{Ledger: pool.Ledger{Submitted: 5, Completed: 3, Shed: 1, Expired: 1,
			WritesIn: 3, WritesAcked: 1}}},
	}}
	if got := c.Points(); got != 3 {
		t.Fatalf("Points() = %d, want 3", got)
	}
	// Row 0 loses 1 write (4 in, 2 acked, 1 shed), row 2 loses 2.
	if got := c.AckedLostTotal(); got != 3 {
		t.Fatalf("AckedLostTotal() = %d, want 3", got)
	}
	if got := c.ShedTotal(); got != 4 {
		t.Fatalf("ShedTotal() = %d, want 4", got)
	}
	if got := c.ExpiredTotal(); got != 2 {
		t.Fatalf("ExpiredTotal() = %d, want 2", got)
	}
	if got := c.MinAvailability(); got != 0.6 {
		t.Fatalf("MinAvailability() = %v, want 0.6", got)
	}
	if got := (Outcome{}).Availability(); got != 0 {
		t.Fatalf("Availability() before any request = %v, want 0", got)
	}
}

// TestRunPointLabelsErrors: a plane whose audit fails after an otherwise
// clean run must surface the failure through the runner, wrapped with the
// point's label, and leave no outcome behind.
func TestRunPointLabelsErrors(t *testing.T) {
	const label = "faultpool point 7 (program m1)"
	pt := campaignPoint(label, core.FaultedConfig(), 5, 5, 50, false)
	pt.Load.RatePerSec = 1e5
	pl, gen, err := pt.build()
	if err != nil {
		t.Fatal(err)
	}
	p := pl.(*pool.Pool)
	planted := errors.New("planted audit failure")
	out, err := runPoint(label, sickPlane{p, planted}, gen, 16, nil)
	if !errors.Is(err, planted) {
		t.Fatalf("runPoint error = %v, want the planted audit failure", err)
	}
	if !strings.HasPrefix(err.Error(), label+": ") {
		t.Fatalf("runPoint error %q does not start with the point label %q", err, label)
	}
	if out.Submitted != 0 || out.Lat != nil {
		t.Fatalf("a failed point returned an outcome: %+v", out)
	}
	// The same plane audits clean: the runner passed the planted error
	// through, it did not make one up.
	if err := p.CheckHealth(); err != nil {
		t.Fatalf("pool audit: %v", err)
	}
}

// sickPlane is a pool whose audit always fails with err.
type sickPlane struct {
	*pool.Pool
	err error
}

func (s sickPlane) CheckHealth() error { return s.err }
