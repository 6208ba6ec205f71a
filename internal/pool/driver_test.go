package pool

import (
	"testing"

	"nvdimmc/internal/workload/openloop"
)

// TestWedgeGuardBoundsOneCall: MaxEpochs bounds the epochs one Run or Drain
// call takes, not the plane's age. A plane stepped by hand past its guard
// still runs a stream and drains a write.
func TestWedgeGuardBoundsOneCall(t *testing.T) {
	p := newTestPool(t, 1, 1, 1, 4096, func(c *Config) { c.MaxEpochs = 64 })
	for p.Epochs() <= 64 {
		p.Step()
	}
	at, n := p.Elapsed(), 0
	if err := Run(p, func() (openloop.Request, bool) {
		n++
		return openloop.Request{Arrival: at, Off: int64(n) * 4096, Len: 4096}, n <= 8
	}, nil); err != nil {
		t.Errorf("Run on a plane past its guard: %v", err)
	}
	if _, err := p.Submit(openloop.Request{Arrival: p.Elapsed(), Len: 4096, Write: true}); err != nil {
		t.Fatal(err)
	}
	if err := Drain(p); err != nil {
		t.Fatalf("Drain on a plane past its guard: %v", err)
	}
	if l := p.Ledger(); l.Completed != 9 {
		t.Fatalf("completed %d of 9 requests", l.Completed)
	}
	if err := p.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}
