package sim

// Resource models an exclusive, FIFO-serviced shared resource: a memory
// channel, a CP mailbox slot, an FTL core. Requests specify a hold time;
// the resource grants them in arrival order with no preemption. Queueing
// delay under contention therefore emerges from the event schedule rather
// than from an analytic formula.
type Resource struct {
	k    *Kernel
	name string

	busyUntil Time
	// queue holds waiting grants by value and dispatchFn is r.dispatch bound
	// once: neither a queued nor an immediate Acquire allocates.
	queue      []grant
	dispatchFn func()
	// Every grant reserves the kernel sequence number of a dispatcher event
	// at its release instant, but the event is queued (armed) only once a
	// grant waits: an uncontended grant costs no kernel event. resv holds
	// the numbers reserved for instant resvAt, oldest first, from resvHead
	// on; several exist only when zero-length holds chain at one instant.
	// An armed dispatcher is resv[resvHead], and it is the earliest of them,
	// so it fires where the first always-queued dispatcher that found work
	// would have, and the rest would have found nothing to do.
	resvAt   Time
	resv     []uint64
	resvHead int
	armed    bool

	// Busy accumulates total occupied time, for utilization reporting.
	Busy Duration
	// Grants counts completed acquisitions.
	Grants uint64
}

type grant struct {
	hold  Duration
	fn    func(start Time)
	after func()
}

// NewResource returns an idle resource attached to kernel k.
func NewResource(k *Kernel, name string) *Resource {
	r := &Resource{k: k, name: name}
	r.dispatchFn = r.dispatch
	return r
}

// Name returns the diagnostic name the resource was created with.
func (r *Resource) Name() string { return r.name }

// Acquire requests exclusive use for hold picoseconds. fn runs at the instant
// the resource is granted (service start); the resource frees itself hold
// later. Acquire never blocks the caller.
func (r *Resource) Acquire(hold Duration, fn func(start Time)) {
	r.acquire(grant{hold: hold, fn: fn})
}

// Hold requests exclusive use for hold picoseconds and runs fn when the
// hold ends, before the next waiting grant starts. It is Acquire with a
// grant callback that schedules fn at start+hold, minus the callback.
func (r *Resource) Hold(hold Duration, fn func()) {
	r.acquire(grant{hold: hold, after: fn})
}

func (r *Resource) acquire(g grant) {
	if g.hold < 0 {
		g.hold = 0
		r.k.negDelays++
	}
	if r.busyUntil <= r.k.Now() && len(r.queue) == 0 {
		r.start(g)
		return
	}
	r.queue = append(r.queue, g)
	r.arm()
}

// start grants g at the current instant: both callers (an idle Acquire and
// the dispatcher at busyUntil) run at the service start. The dispatcher's
// sequence number is reserved after g's callbacks, where an always-queued
// dispatcher would be scheduled, and armed at once if a grant already
// waits (one queued by g.fn, or the rest of the queue).
func (r *Resource) start(g grant) {
	at := r.k.Now()
	r.busyUntil = at.Add(g.hold)
	r.Busy += g.hold
	r.Grants++
	if g.fn != nil {
		g.fn(at)
	}
	if g.after != nil {
		r.k.ScheduleAt(r.busyUntil, g.after)
	}
	// busyUntil is a grant start plus its hold: never before now.
	if r.busyUntil != r.resvAt {
		r.resvAt, r.resv, r.resvHead = r.busyUntil, r.resv[:0], 0
	}
	r.resv = append(r.resv, r.k.reserve(r.busyUntil))
	r.arm()
}

// arm queues the earliest reserved dispatcher for the current release
// instant if a grant waits and none is queued yet. Inside start, before
// the grant's own number is reserved, the reservations belong to an
// earlier instant and arm waits for the end of start.
func (r *Resource) arm() {
	if r.armed || len(r.queue) == 0 || r.resvAt != r.busyUntil || r.resvHead == len(r.resv) {
		return
	}
	r.armed = true
	r.k.push(event{at: r.resvAt, seq: r.resv[r.resvHead], fn: r.dispatchFn})
}

func (r *Resource) dispatch() {
	r.armed = false
	r.resvHead++
	if r.busyUntil > r.k.Now() || len(r.queue) == 0 {
		return
	}
	g := r.queue[0]
	copy(r.queue, r.queue[1:])
	r.queue[len(r.queue)-1] = grant{}
	r.queue = r.queue[:len(r.queue)-1]
	r.start(g)
}

// WarpGrants credits n uncontended grants of hold picoseconds each, the
// last one starting at lastStart, without running any events. The caller
// owns the proof that the resource is idle and uncontended across every
// warped grant (no queue, each grant's hold ends before the next starts);
// counters and the release instant then land exactly where n real Acquire
// calls would have left them. No dispatcher is reserved — warped grants
// have no queue to drain.
func (r *Resource) WarpGrants(n uint64, hold Duration, lastStart Time) {
	if n == 0 {
		return
	}
	r.busyUntil = lastStart.Add(hold)
	r.Busy += Duration(n) * hold
	r.Grants += n
}

// BusyUntil reports the instant the current grant (if any) releases the
// resource.
func (r *Resource) BusyUntil() Time { return r.busyUntil }
