package sim

// Signal is a broadcast condition: processes wait on it with
// StepCtx.WaitSignal and a later Broadcast resumes all of them at the
// current simulated time. The machine model uses one Signal per watched
// cache line so that a thread polling a
// locally cached flag consumes no simulated traffic (and no host CPU) until
// an invalidation arrives — exactly the behaviour of polling on a coherent
// cache.
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal creates a Signal bound to env. It has no side effect on env,
// so hot-path callers may allocate one lazily and reuse it indefinitely
// (the machine's stream flush join does); the waiter list empties on every
// Broadcast and Signal identity is never part of the state digest.
func NewSignal(env *Env) *Signal {
	//lint:ignore hotalloc one Signal per lazy creation; hot-path callers pool and reuse it (stream flush joins, watcher slots)
	return &Signal{env: env}
}

// wait queues p as a waiter and accounts it as blocked; the caller
// (StepCtx.WaitSignal) marks its frame parked, and Broadcast wakes it
// through unblock.
func (s *Signal) wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.env.blocked++
}

// Broadcast resumes every waiting process at the current time (in the order
// they began waiting). unblock only queues
// events, so no process can join the list mid-loop, and the emptied list
// keeps its backing array: a Signal reused across many waits (a stream's
// flush join) allocates its waiter list once.
func (s *Signal) Broadcast() {
	for _, p := range s.waiters {
		s.env.unblock(p)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Waiting returns the number of processes currently blocked on the Signal.
func (s *Signal) Waiting() int { return len(s.waiters) }
