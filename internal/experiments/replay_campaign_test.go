package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestReplayCampaignByteIdentical runs the quick replay campaign and checks
// its acceptance surface: every variant reproduces the live run, no arrival
// was re-timed, and the binary format earns its keep.
func TestReplayCampaignByteIdentical(t *testing.T) {
	var out bytes.Buffer
	res, err := Replay(Options{Quick: true, Out: &out})
	if err != nil {
		t.Fatalf("replay campaign: %v\n%s", err, out.String())
	}
	if res.Points() != 12 {
		t.Fatalf("got %d variants, want 12", res.Points())
	}
	if d := res.Divergent(); d != 0 {
		t.Fatalf("%d variants diverged from the live run", d)
	}
	if r := res.RetimedTotal(); r != 0 {
		t.Fatalf("%d arrival clamps replaying a monotone capture", r)
	}
	if x := res.CompactionX(); x < 2 {
		t.Fatalf("binary compaction %.2fx, want >= 2x", x)
	}
	// The capture must exercise more than the happy path: the determinism
	// claim is only interesting if sheds or expiries are in the trace.
	if res.Live.Shed+res.Live.Expired == 0 {
		t.Fatalf("capture saw no sheds or expiries (completed=%d): the overload knobs regressed",
			res.Live.Completed)
	}
	if !strings.Contains(out.String(), "12/12 variants reproduce the live run exactly") {
		t.Fatalf("missing verdict line in output:\n%s", out.String())
	}
}

// TestReplayCampaignShardedIdentical pins the campaign table itself to the
// byte-identity contract: sharding the 12 variants across 4 workers must
// print the same bytes as the serial run.
func TestReplayCampaignShardedIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short: the serial quick campaign already runs in TestReplayCampaignByteIdentical")
	}
	var serial, sharded bytes.Buffer
	if _, err := Replay(Options{Quick: true, Out: &serial}); err != nil {
		t.Fatalf("serial: %v", err)
	}
	if _, err := Replay(Options{Quick: true, Out: &sharded, Parallel: 4}); err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if serial.String() != sharded.String() {
		t.Fatalf("serial and 4-worker tables differ:\n--- serial ---\n%s--- sharded ---\n%s",
			serial.String(), sharded.String())
	}
}
