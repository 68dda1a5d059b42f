package sim

// Resource is a FIFO-queued resource with integer capacity, used to model
// serializing hardware structures: a CHA tag-directory pipeline, a tile's L2
// port, a memory-channel slot. A process queues on it with StepCtx.Acquire
// or StepCtx.Use when it is full; Release hands the slot to the
// longest-waiting process.
//
// The 1:N contention behaviour the paper measures (T_C(N) = α + β·N) emerges
// from FIFO queueing on these resources, not from an explicit formula.
type Resource struct {
	//knl:nostate backlink to the owning environment (wiring)
	env *Env
	//knl:nostate immutable display name
	name string
	//knl:nostate immutable configuration
	capacity int
	//knl:nostate zero at every quiescent digest/Reset point (Reset panics otherwise)
	inUse int
	//knl:nostate empty at every quiescent digest/Reset point (Reset panics otherwise)
	waiters []*Proc
	// Stats: acquires is folded by the machine digest; the rest feed
	// Utilization/MaxQueue reporting only.
	acquires uint64
	//knl:nostate reporting statistic (MaxQueue), not observable timeline state
	maxQueue int
	//knl:nostate reporting statistic (Utilization), not observable timeline state
	busyTime Time
	//knl:nostate bookkeeping for busyTime accounting
	lastChange Time
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, name: name, capacity: capacity}
}

// acquireOrPark takes a slot when one is free, or queues p as a FIFO waiter
// and accounts it as blocked. It reports whether the slot was obtained; on
// a false return, Release will later transfer the slot and reschedule p
// (the step process records the pending op and returns to the scheduler;
// see step.go).
func (r *Resource) acquireOrPark(p *Proc) bool {
	r.acquires++
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.accountBusy()
		r.inUse++
		return true
	}
	r.waiters = append(r.waiters, p)
	if len(r.waiters) > r.maxQueue {
		r.maxQueue = len(r.waiters)
	}
	p.env.blocked++
	return false
}

// Release frees one slot. If processes are waiting, the head of the queue is
// resumed at the current simulated time and inherits the slot.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	r.accountBusy()
	if len(r.waiters) > 0 {
		head := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		// Slot transfers directly: inUse stays the same.
		r.env.unblock(head)
		return
	}
	r.inUse--
}

// QueueLen returns the number of processes currently waiting.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Acquires returns the number of Acquire and Use ops entered so far,
// whether or not they had to queue.
func (r *Resource) Acquires() uint64 { return r.acquires }

// MaxQueue returns the maximum observed queue length.
func (r *Resource) MaxQueue() int { return r.maxQueue }

// Utilization returns the fraction of simulated time (up to now) during
// which at least one slot was held.
func (r *Resource) Utilization() float64 {
	r.accountBusy()
	if r.env.now == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(r.env.now)
}

// Reset zeroes the resource's statistics for machine reuse. It panics if
// the resource is held or has waiters (Reset belongs between completed
// simulation runs, never during one).
func (r *Resource) Reset() {
	if r.inUse != 0 || len(r.waiters) != 0 {
		panic("sim: Reset of busy resource " + r.name)
	}
	r.acquires = 0
	r.maxQueue = 0
	r.busyTime = 0
	r.lastChange = 0
}

func (r *Resource) accountBusy() {
	if r.inUse > 0 {
		r.busyTime += r.env.now - r.lastChange
	}
	r.lastChange = r.env.now
}
