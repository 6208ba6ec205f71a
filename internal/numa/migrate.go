// Background evacuation migration: the pool's rebuild engine lifted to
// socket scale. When a socket is condemned, its resident set (the pooled
// page offsets its DRAM caches hold, via pool.ResidentPooled) is snapshot
// once; each epoch a bounded batch of pages is copied — a read on the
// victim paired with a write on the page's new owner, issued together like
// rebuild's paired ops, the write's arrival carrying the page across the
// interconnect. Copies are best-effort occupancy traffic, exactly like
// rebuild: a read the victim's quarantined members refuse counts as a
// migrate read miss (typed, attributed), it is not retried — the
// durability story is the conservation gate (no acked write is ever
// dropped; foreground rerouting is what preserves service), the migration
// models the traffic and its interference.
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

// migJob is one socket evacuation in progress.
type migJob struct {
	victim      int
	pages       []int64 // victim-local page offsets (fabric-span-local)
	next        int     // cursor into pages
	outstanding int     // in-flight paired ops (reads + writes)
	readMiss    int     // victim reads refused (quarantined members, shed)
	writeFail   int     // survivor writes refused
}

// migOp is one half of a paired page copy, keyed by pool request ID in the
// owning socket's mig map.
type migOp struct {
	job   *migJob
	write bool
}

// startMigration snapshots the victim's resident set and queues the job.
// Pages above the fabric span (capacity the pool has but the fabric never
// addressed) cannot hold fabric data and are skipped. It wakes every
// socket first, and no socket parks while a job runs (park), so migSubmit
// always finds its pool caught up.
func (f *Fabric) startMigration(victim int) {
	for _, s := range f.socks {
		f.wake(s)
	}
	all := f.socks[victim].pool.ResidentPooled()
	pages := all[:0]
	for _, off := range all {
		if off+migPageSize <= f.span {
			pages = append(pages, off)
		}
	}
	f.ctr.Add("mig-pages-planned", uint64(len(pages)))
	f.jobs = append(f.jobs, &migJob{victim: victim, pages: pages})
}

// migratePagesPerEpoch rate-limits background evacuation migration: pages
// per epoch per job, the pool rebuild engine's rate.
const migratePagesPerEpoch = 8

// issueMigrations advances every job by up to migratePagesPerEpoch pages at
// the boundary, before the pools step — rate-limited so evacuation shares
// the epoch with foreground traffic instead of monopolizing it (the
// migration-interference histogram measures exactly this contention).
func (f *Fabric) issueMigrations() {
	for _, j := range f.jobs {
		budget := migratePagesPerEpoch
		for budget > 0 && j.next < len(j.pages) {
			off := j.pages[j.next]
			j.next++
			budget--
			// The page's fabric address lies under the victim's own logical
			// span; its current owner is wherever re-homing sent that chunk.
			dst := f.ownerOf(int64(j.victim)*f.span + off)
			f.migSubmit(j, j.victim, off, false, f.now)
			at := f.links.xfer(j.victim, dst, migPageSize, f.now)
			f.migSubmit(j, dst, off, true, at)
			f.ctr.Inc("mig-pages")
		}
	}
}

// migSubmit issues one migration half-op directly to a socket's pool
// (bypassing the fabric's foreground dispatch — migration deliberately
// reads from an Evacuating victim). A synchronous refusal — admission shed
// on a loaded survivor, typed fast-fail on a dead victim — is folded into
// the job's miss counters at once.
func (f *Fabric) migSubmit(j *migJob, sock int, off int64, write bool, at sim.Duration) {
	id, err := f.socks[sock].pool.Submit(openloop.Request{
		Arrival: at,
		Socket:  sock,
		Off:     off,
		Len:     migPageSize,
		Write:   write,
	})
	if err != nil {
		f.migMiss(j, write)
		return
	}
	j.outstanding++
	f.socks[sock].mig[id] = &migOp{job: j, write: write}
}

// migDone folds one asynchronous migration completion into its job.
func (f *Fabric) migDone(mo *migOp, c pool.Completion) {
	mo.job.outstanding--
	if c.Outcome != pool.OutcomeCompleted {
		f.migMiss(mo.job, mo.write)
	}
}

func (f *Fabric) migMiss(j *migJob, write bool) {
	if write {
		j.writeFail++
		f.ctr.Inc("mig-write-fail")
	} else {
		j.readMiss++
		f.ctr.Inc("mig-read-miss")
	}
}

// sweepMigrations retires finished jobs after collection: all pages issued
// and no op in flight means the victim is fully Evacuated.
func (f *Fabric) sweepMigrations() {
	keep := f.jobs[:0]
	for _, j := range f.jobs {
		if j.next >= len(j.pages) && j.outstanding == 0 {
			f.socks[j.victim].health.state = SocketEvacuated
			f.ctr.Inc("socket-evacuated")
			continue
		}
		keep = append(keep, j)
	}
	f.jobs = keep
}
