// Background evacuation migration: the pool's rebuild copier (pool.Copy)
// at socket scale. When a socket is condemned, its resident set (the
// pooled page offsets its DRAM caches hold, via pool.ResidentPooled) is
// snapshot once; each epoch a bounded batch of pages is copied — a read on
// the victim paired with a write on the page's new owner, the write's
// arrival carrying the page across the interconnect. Copies are
// best-effort occupancy traffic, exactly like rebuild: a read the victim's
// quarantined members refuse counts as a migrate read miss (typed,
// attributed), it is not retried — the durability story is the
// conservation gate (no acked write is ever dropped; foreground rerouting
// is what preserves service), the migration models the traffic and its
// interference.
//
// Note the fabric's address model makes re-homed chunks alias the
// survivor's own local offsets (local offset is preserved across
// re-homing). The simulator models placement, occupancy and timing — not
// stored contents — so aliasing costs nothing here; a production fabric
// would remap into free extents at this point in the protocol.
package numa

import (
	"nvdimmc/internal/pool"
	"nvdimmc/internal/sim"
	"nvdimmc/internal/workload/openloop"
)

// migPageSize is the migration transfer unit — the management page, same
// as the rebuild engine's unit.
const migPageSize = 4096

// migOp is one half of a paired page copy, keyed by pool request ID in the
// owning socket's mig map, which holds it by value: two words.
type migOp struct {
	job   *pool.Copy
	write bool
}

// startMigration snapshots the victim's resident set, as victim-local page
// offsets, and queues its copy.
// Pages above the fabric span (capacity the pool has but the fabric never
// addressed) cannot hold fabric data and are skipped. It wakes every
// socket first, and no socket parks while a job runs (park), so migSubmit
// always finds its pool caught up.
func (f *Fabric) startMigration(victim int) {
	for si := range f.socks {
		f.sup.Wake(si)
	}
	all := f.socks[victim].pool.ResidentPooled()
	pages := all[:0]
	for _, off := range all {
		if off+migPageSize <= f.span {
			pages = append(pages, off)
		}
	}
	f.ctr.Add("mig-pages-planned", uint64(len(pages)))
	f.sup.Jobs = append(f.sup.Jobs, &pool.Copy{Victim: victim, Dest: -1, Pages: pages})
}

// issueMigrations advances every copy by its next pages (Copy.Issue) at
// the boundary, before the pools step — rate-limited so evacuation shares
// the epoch with foreground traffic instead of monopolizing it (the
// migration-interference histogram measures exactly this contention).
func (f *Fabric) issueMigrations() {
	for _, j := range f.sup.Jobs {
		j.Issue(func(off int64) int {
			// The page's fabric address lies under the victim's own logical
			// span; its current owner is wherever re-homing sent that chunk.
			dst := f.ownerOf(int64(j.Victim)*f.span + off)
			now := f.Front.Now()
			n := f.migSubmit(j, j.Victim, off, false, now)
			n += f.migSubmit(j, dst, off, true, f.links.xfer(j.Victim, dst, migPageSize, now))
			f.ctr.Inc("mig-pages")
			return n
		})
	}
}

// migSubmit issues one migration half-op directly to a socket's pool
// (bypassing the fabric's foreground dispatch — migration deliberately
// reads from an Evacuating victim). A synchronous refusal — admission shed
// on a loaded survivor, typed fast-fail on a dead victim — is counted as a
// miss at once. It returns how many halves it left outstanding (0 or 1).
func (f *Fabric) migSubmit(j *pool.Copy, sock int, off int64, write bool, at sim.Time) int {
	id, err := f.socks[sock].pool.Submit(openloop.Request{
		Arrival: at.Sub(f.Origin()),
		Socket:  sock,
		Off:     off,
		Len:     migPageSize,
		Write:   write,
	})
	if err != nil {
		f.migMiss(write)
		return 0
	}
	f.socks[sock].mig[id] = migOp{job: j, write: write}
	return 1
}

// migDone folds one asynchronous migration completion into its copy.
func (f *Fabric) migDone(mo migOp, c pool.Completion) {
	mo.job.Outstanding--
	if c.Outcome != pool.OutcomeCompleted {
		f.migMiss(mo.write)
	}
}

func (f *Fabric) migMiss(write bool) {
	if write {
		f.ctr.Inc("mig-write-fail")
	} else {
		f.ctr.Inc("mig-read-miss")
	}
}
