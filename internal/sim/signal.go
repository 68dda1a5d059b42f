package sim

// Signal is a broadcast condition: processes Wait on it and a later
// Broadcast resumes all of them at the current simulated time. The machine
// model uses one Signal per watched cache line so that a thread polling a
// locally cached flag consumes no simulated traffic (and no host CPU) until
// an invalidation arrives — exactly the behaviour of polling on a coherent
// cache.
type Signal struct {
	env     *Env
	waiters []*Proc
	version uint64 // incremented on every Broadcast
}

// NewSignal creates a Signal bound to env. It has no side effect on env,
// so hot-path callers may allocate one lazily and reuse it indefinitely
// (the machine's stream flush join does); the waiter list empties on every
// Broadcast and Signal identity is never part of the state digest.
func NewSignal(env *Env) *Signal {
	//lint:ignore hotalloc one Signal per lazy creation; hot-path callers pool and reuse it (stream flush joins, watcher slots)
	return &Signal{env: env}
}

// Wait blocks the calling process until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.block()
}

// waitStep queues the step process p as a waiter: the step half of Wait.
// The caller (StepCtx.WaitSignal) marks its frame parked; Broadcast wakes
// both kinds identically through unblock.
func (s *Signal) waitStep(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.env.blocked++
}

// WaitVersion blocks until the Signal's version exceeds v. It returns the
// version observed on wake-up. Use Version before inspecting guarded state
// to avoid lost wake-ups.
func (s *Signal) WaitVersion(p *Proc, v uint64) uint64 {
	for s.version <= v {
		s.Wait(p)
	}
	return s.version
}

// Version returns the number of Broadcasts so far.
func (s *Signal) Version() uint64 { return s.version }

// Broadcast resumes every waiting process at the current time (in the order
// they began waiting) and increments the version. unblock only queues
// events, so no process can join the list mid-loop, and the emptied list
// keeps its backing array: a Signal reused across many waits (a stream's
// flush join) allocates its waiter list once.
func (s *Signal) Broadcast() {
	s.version++
	for _, p := range s.waiters {
		s.env.unblock(p)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Waiting returns the number of processes currently blocked on the Signal.
func (s *Signal) Waiting() int { return len(s.waiters) }
