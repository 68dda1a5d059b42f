// Package sim is a small deterministic discrete-event simulation engine.
//
// Simulated threads of execution are step processes: resumable state
// machines (Stepper) that the scheduler advances inline, with no goroutine
// per process. A process advances simulated time with StepCtx.Wait,
// serializes on shared hardware structures with Resource, and blocks on
// state changes with Signal; each such primitive is a micro-op the
// scheduler executes between Step calls (see step.go). Events that fire at
// the same timestamp are executed in FIFO scheduling order, so runs are
// exactly reproducible.
//
// The event queue is a concrete 4-ary heap over a slice of event values,
// fronted by a FIFO ring for events due at the current instant, and
// retired step frames are recycled through a free list, so the
// steady-state per-event path performs no allocation.
//
// Time is in nanoseconds (float64), matching the units of the capability
// model in the paper.
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time = float64

// event is a scheduled resumption of a process.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for equal timestamps
	proc *Proc
}

// eventLess orders events by (time, scheduling sequence); seq is unique, so
// the order is total and independent of heap shape.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue holds the pending events in two lanes. The 4-ary min-heap h
// holds events scheduled for a later instant than the clock showed when
// they were queued; the FIFO ring holds events scheduled for the current
// instant (at == now), which make up a large share of all events (signal
// and resource wake-ups, same-instant spawns) and need no sift. pop takes
// the smaller of the two heads by eventLess, so the dispatch order is
// exactly the (at, seq) order of a single heap: every ring entry carries
// the same at (the ring drains before the clock can advance past it) and
// sits in seq order (it is appended in scheduling order).
//
// The 4-ary layout halves the tree depth of a binary heap and keeps the
// four children of a node in one or two cache lines; the concrete element
// type avoids the interface{} boxing that container/heap imposes on every
// Push and Pop.
type eventQueue struct {
	//knl:nostate empty whenever a machine is digested or reset (Env.Reset panics otherwise)
	h []event
	//knl:nostate ring occupancy: zero at every digest/Reset point
	n int
	//knl:nostate ring cursor: zero entries at every digest/Reset point
	head int
	//knl:nostate empty whenever a machine is digested or reset (Env.Reset panics otherwise)
	ring []event // power-of-two FIFO of same-instant events
}

func (q *eventQueue) len() int { return len(q.h) + q.n }

// pushNow appends a same-instant event to the ring.
func (q *eventQueue) pushNow(ev event) {
	if q.n == len(q.ring) {
		q.growRing()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = ev
	q.n++
}

// growRing doubles the ring, unwrapping its entries to the front. It stays
// out of line: inlined through pushNow into schedule, the cold make and
// copies grew schedule's frame and slowed the heap-only dispatch of
// BenchmarkStepHandoff by ~13%.
//
//go:noinline
func (q *eventQueue) growRing() {
	size := 2 * len(q.ring)
	if size == 0 {
		size = 16
	}
	//lint:ignore hotalloc the ring doubles to the deepest same-instant backlog once, then is reused for the Env's lifetime
	grown := make([]event, size)
	m := copy(grown, q.ring[q.head:])
	copy(grown[m:], q.ring[:q.head])
	q.ring = grown
	q.head = 0
}

func (q *eventQueue) push(ev event) {
	q.h = append(q.h, ev)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes and returns the earliest event by (at, seq): the ring's head
// when it precedes the heap's top, the heap's top otherwise. Both lanes
// live in this one function so the common heap-only dispatch still costs
// a single call.
func (q *eventQueue) pop() event {
	if q.n != 0 && (len(q.h) == 0 || eventLess(q.ring[q.head], q.h[0])) {
		ev := q.ring[q.head]
		q.ring[q.head] = event{} // drop the proc pointer so retired processes collect
		q.head = (q.head + 1) & (len(q.ring) - 1)
		q.n--
		return ev
	}
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = event{} // drop the proc pointer so retired processes collect
	q.h = q.h[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(q.h[c], q.h[min]) {
				min = c
			}
		}
		if !eventLess(q.h[min], q.h[i]) {
			break
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
	return top
}

// Env is a simulation environment: an event queue, a clock, and the set of
// live processes. An Env is driven by one goroutine at a time: Run advances
// every process inline on the caller's goroutine.
type Env struct {
	now Time
	seq uint64
	//knl:nostate drained at every digest/Reset point (Reset panics otherwise)
	events eventQueue
	//knl:nostate recycled step-process frames, deliberately invisible to any digest
	freeStep []*StepProc // recycled frames of retired step processes (see step.go)
	//knl:nostate zero at every quiescent digest/Reset point
	live int // processes spawned and not yet finished
	//knl:nostate zero at every quiescent digest/Reset point
	blocked int // processes waiting on a Signal or Resource (no event queued)

	// OnWait, when non-nil, observes every relative wait (StepCtx.Wait and
	// the hold of StepCtx.Use) before it schedules: the measurement layer's
	// convergence gate records per-pass wait profiles through it
	// (internal/bench). It must not touch the environment. The hook sees
	// relative waits only — WaitUntil and Signal/Resource wake-ups bypass
	// it — so observers that need complete time accounting must
	// cross-check elapsed time themselves (the bench recorder folds the
	// recorded waits and compares against the clock).
	//knl:nostate observation hook: mechanism, not simulated state
	OnWait func(p *Proc, d Time)
}

// NewEnv returns an empty simulation at time 0.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// Seq returns the number of events scheduled so far. Together with Now it
// identifies a point in the simulation's event history: two deterministic
// runs of the same workload must agree on both.
func (e *Env) Seq() uint64 { return e.seq }

// Live returns the number of processes that have been spawned and not yet
// finished.
func (e *Env) Live() int { return e.live }

// Blocked returns the number of processes currently blocked with no pending
// event (waiting on a Signal or a Resource).
func (e *Env) Blocked() int { return e.blocked }

// Proc is the identity of a step process: event queue entries, Resource
// and Signal waiter lists and the OnWait hook all refer to a process
// through it. The sp backlink leads the scheduler to the process's frame.
type Proc struct {
	env  *Env
	name string
	sp   *StepProc
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// schedule queues a resumption of p at time at: on the same-instant ring
// when at is the current time, on the heap otherwise. Either way the event
// takes the next seq number, so Seq counts every scheduled event.
func (e *Env) schedule(p *Proc, at Time) {
	e.seq++
	if at == e.now {
		e.events.pushNow(event{at: at, seq: e.seq, proc: p})
		return
	}
	e.events.push(event{at: at, seq: e.seq, proc: p})
}

// waitFast consumes a wait of the running process without touching the event
// queue: when the event that schedule would push is strictly the next one to
// pop (every queued event is later; an equal-time event has an earlier seq
// and must run first), pushing and immediately popping it is pure overhead —
// the clock advances and the same process keeps running. The seq increment
// still happens, so Seq-based digests are bit-identical with the slow path.
// Reports false when a queued event is due first — any event on the
// same-instant ring (due now, so never later than at) or a heap top due at
// or before at; the caller then schedules as usual.
//
//knl:hotpath the fused wait of the protocol walks; BenchmarkLoadLineHotPath pins 0 allocs/op
func (e *Env) waitFast(at Time) bool {
	if e.events.n != 0 || len(e.events.h) != 0 && e.events.h[0].at <= at {
		return false
	}
	e.seq++
	e.now = at
	return true
}

// unblock schedules a blocked process to resume at the current time.
func (e *Env) unblock(p *Proc) {
	e.blocked--
	e.schedule(p, e.now)
}

// Run pops events in (time, seq) order, advancing each event's process
// inline, and returns when the event queue drains, with the final
// simulated time. If processes remain blocked on Signals or Resources at
// that point, Run returns ErrDeadlock (the usual cause is a collective
// algorithm bug: a flag that is polled but never set).
//
//knl:hotpath the event loop of every simulation; BenchmarkEngineEventThroughput pins 0 allocs/op
func (e *Env) Run() (Time, error) {
	for e.events.len() > 0 {
		ev := e.events.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.advance(ev.proc.sp)
	}
	if e.blocked > 0 {
		//lint:ignore hotalloc runs once, after the event loop, only when the simulation deadlocked
		return e.now, fmt.Errorf("sim: deadlock: %w (%d blocked, %d live)",
			ErrDeadlock, e.blocked, e.live)
	}
	return e.now, nil
}

// Reset returns a drained environment to time zero for reuse by a pooled
// machine: the clock and event counter restart. Recycled step frames are
// dropped: the quiescence check already proves no step process is queued
// or running, so the next run starts with an empty step pool rather than
// frames sized by the previous workload. Reset panics if events are still
// queued or processes are live or blocked — it may only run between
// completed Runs.
func (e *Env) Reset() {
	if e.events.len() != 0 || e.live != 0 || e.blocked != 0 {
		panic(fmt.Sprintf("sim: Reset of non-quiescent env (%d events, %d live, %d blocked)",
			e.events.len(), e.live, e.blocked))
	}
	e.now = 0
	e.seq = 0
	e.OnWait = nil
	e.freeStep = nil
}

// ErrDeadlock reports that the event queue drained while processes were
// still blocked.
var ErrDeadlock = errDeadlock{}

type errDeadlock struct{}

func (errDeadlock) Error() string { return "blocked processes remain" }
