package numa

import (
	"fmt"

	"nvdimmc/internal/metrics"
	"nvdimmc/internal/pool"
)

// SocketStats is one socket's end-of-run view.
type SocketStats struct {
	State  SocketState
	Reason string
	Pool   pool.Stats
}

// Stats is the fabric's end-of-run aggregate.
type Stats struct {
	// Lat holds local foreground completions; LatRemote those that crossed
	// the interconnect at least once; LatMigrate foreground completions
	// that landed while a migration ran (the interference histogram).
	Lat        *metrics.Histogram
	LatRemote  *metrics.Histogram
	LatMigrate *metrics.Histogram
	// Ctr folds the fabric's own counters with every socket's pool counters
	// under an "s<i>/" prefix.
	Ctr *metrics.Counters

	// Ledger books every terminal fabric request.
	pool.Ledger

	// PostEvacSubmissions counts foreground pool submissions that reached a
	// socket at or past Evacuating — structurally zero (see dispatch).
	PostEvacSubmissions uint64
	RemoteRequests      uint64
	ChunksRehomed       uint64
	MigPages            uint64
	MigReadMiss         uint64
	MigWriteFail        uint64

	Epochs    int
	PerSocket []SocketStats
}

// Stats assembles the aggregate; boundary-only like everything else.
func (f *Fabric) Stats() Stats {
	s := Stats{
		Lat:                 f.lat,
		LatRemote:           f.latRemote,
		LatMigrate:          f.latMigrate,
		Ctr:                 metrics.NewCounters(),
		Ledger:              f.Ledger(),
		PostEvacSubmissions: f.postEvacSubmissions,
		RemoteRequests:      f.ctr.Get("remote-requests"),
		ChunksRehomed:       f.ctr.Get("chunks-rehomed"),
		MigPages:            f.ctr.Get("mig-pages"),
		MigReadMiss:         f.ctr.Get("mig-read-miss"),
		MigWriteFail:        f.ctr.Get("mig-write-fail"),
		Epochs:              f.sup.Epochs,
	}
	s.Ctr.Merge(f.ctr)
	for si, sock := range f.socks {
		f.sup.Wake(si)
		ps := sock.pool.Stats()
		s.Ctr.MergePrefixed(fmt.Sprintf("s%d/", si), ps.Ctr)
		s.PerSocket = append(s.PerSocket, SocketStats{
			State:  SocketState(f.sup.Kids[si].State),
			Reason: f.sup.Kids[si].Reason,
			Pool:   ps,
		})
	}
	return s
}

// Latency is the fabric's local foreground latency histogram (Stats.Lat).
func (f *Fabric) Latency() *metrics.Histogram { return f.lat }

// CheckHealth verifies the fabric's conservation invariants and every
// socket pool's own, victims included — a condemned socket must still
// account for every request it ever accepted:
//
//   - every submitted request reached exactly one terminal outcome;
//   - every admitted write acked or typed-terminal (zero acked-write loss);
//   - no untyped failure, no post-evacuation submission;
//   - no piece stranded in retry backoff or pending maps, no migration
//     still running, no orphaned pool completion.
func (f *Fabric) CheckHealth() error {
	if err := f.Ledger().Check(); err != nil {
		return fmt.Errorf("numa: %w", err)
	}
	if f.postEvacSubmissions != 0 {
		return fmt.Errorf("numa: %d foreground submissions reached an evacuating socket", f.postEvacSubmissions)
	}
	if n := f.ctr.Get("orphan-completions"); n != 0 {
		return fmt.Errorf("numa: %d pool completions matched no fabric op", n)
	}
	if err := f.sup.CheckDrained(); err != nil {
		return fmt.Errorf("numa: %w", err)
	}
	for si, s := range f.socks {
		f.sup.Wake(si)
		if len(s.pend) != 0 || len(s.mig) != 0 {
			return fmt.Errorf("numa: socket %d left %d foreground + %d migration ops pending",
				si, len(s.pend), len(s.mig))
		}
		if err := s.pool.CheckHealth(); err != nil {
			return fmt.Errorf("numa: socket %d (%s): %w", si, SocketState(f.sup.Kids[si].State), err)
		}
	}
	return nil
}
