package sim

import "fmt"

// This file holds the engine's process kind: the stackless step process.
// A StepProc is a resumable state machine the scheduler invokes inline —
// no goroutine, no channel operation per event.
//
// A step process describes each blocking primitive (Wait, Use, Acquire,
// WaitSignal) as a micro-op pushed onto a small per-process queue instead
// of executing it on a stack. The scheduler executes queued ops in order —
// hook firings, schedule calls, waiter-queue entries — and calls Step
// again when the queue drains. Step therefore advances from one blocking
// point (a "juncture") to the next; all state between junctures lives in
// the Stepper value, not on a stack.

// Stepper is the body of a step process. Step is called with the op queue
// empty and advances the machine to its next blocking point by pushing ops
// on c (or parking on a Signal, or calling c.End). A Step call that neither
// pushes an op, parks, nor ends panics: the process would spin forever.
type Stepper interface {
	Step(c *StepCtx)
}

// Jitterer draws a deterministic timing perturbation for a base duration.
// The machine layer implements it with its seeded RNG. Ops queued with a
// Jitterer (WaitJit, UseJit, WaitPlusJit) resolve the draw when the op is
// *entered* by the scheduler, not when it is pushed: a Step call may queue
// several jittered ops, and each draw must land at the instant its wait
// begins so that processes sharing the RNG consume it in simulated-time
// order. The draw happens exactly once per op — an op that parks at a
// resource does not redraw on resume.
type Jitterer interface {
	Jitter(d Time) Time
}

// Op kinds of the step-process micro-op queue.
const (
	sopWait      = uint8(iota + 1) // Wait: OnWait hook + schedule(now+d)
	sopWaitUntil                   // WaitUntil: schedule(d), no hook
	sopUse                         // Use: acquire, hold, release
	sopAcquire                     // Acquire: take a slot or queue
)

// stepOp is one queued blocking primitive. phase tracks multi-event ops:
// a Use is acquire (phase 0/1) then hold (phase 2); a Wait is scheduled
// (phase 1) and completes when its event fires. A non-nil jit defers part
// of the duration to op entry: the first execHead call folds jit.Jitter(jd)
// into d and clears jit, so the draw happens at the op's start instant and
// exactly once.
type stepOp struct {
	kind  uint8
	phase uint8
	r     *Resource
	d     Time // Wait duration, Use hold time, or WaitUntil absolute time
	jd    Time // base duration handed to jit at op entry
	jit   Jitterer
}

// StepProc is the scheduler-side frame of a step process. Its embedded Proc
// is the process's identity everywhere the engine tracks processes — event
// queue entries, Resource and Signal waiter lists, OnWait hook calls.
type StepProc struct {
	proc Proc
	fn   Stepper
	ctx  StepCtx
	ops  [8]stepOp
	// opHead/opLen form a ring over ops; ops execute strictly head-first.
	opHead int
	opLen  int
	parked bool // waiting on a Signal (no queued event, no pending op)
	ended  bool // End called: retire once the op queue drains
}

// StepCtx is the execution context handed to Stepper.Step: its primitives
// queue micro-ops for the scheduler.
type StepCtx struct {
	p  *Proc
	sp *StepProc
}

// Proc returns the process identity, valid as a waiter or hook argument.
func (c *StepCtx) Proc() *Proc { return c.p }

// Env returns the environment the process runs in.
func (c *StepCtx) Env() *Env { return c.p.env }

// Now returns the current simulated time.
func (c *StepCtx) Now() Time { return c.p.env.now }

// Blocked reports whether queued ops or a Signal park are pending, i.e.
// whether simulated time may pass before the next Step call. Sub-machines
// are driven as `sub.Step(c); if c.Blocked() { return }` so the parent only
// advances once the sub-machine's primitives have drained.
func (c *StepCtx) Blocked() bool {
	return c.sp.opLen > 0 || c.sp.parked
}

// End marks the process finished: it retires once the already-queued ops
// drain.
func (c *StepCtx) End() {
	c.sp.ended = true
}

func (c *StepCtx) push(op stepOp) {
	sp := c.sp
	if sp.opLen == len(sp.ops) {
		panic("sim: step process op queue overflow")
	}
	sp.ops[(sp.opHead+sp.opLen)&(len(sp.ops)-1)] = op
	sp.opLen++
}

// Wait advances the process by d nanoseconds. Negative d panics. Wait(0)
// yields to other processes scheduled at the same instant that were
// enqueued earlier.
//
//knl:hotpath the event-engine inner loop; BenchmarkEngineEventThroughput pins 0 allocs/op
func (c *StepCtx) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Wait(%v) negative", d))
	}
	c.push(stepOp{kind: sopWait, d: d})
}

// WaitJit waits j.Jitter(base), drawing the jitter when the wait begins.
func (c *StepCtx) WaitJit(j Jitterer, base Time) {
	c.push(stepOp{kind: sopWait, jd: base, jit: j})
}

// WaitPlusJit waits d + j.Jitter(jd): a pre-computed part plus a part whose
// jitter is drawn when the wait begins.
func (c *StepCtx) WaitPlusJit(d Time, j Jitterer, jd Time) {
	c.push(stepOp{kind: sopWait, d: d, jd: jd, jit: j})
}

// UseJit uses r for j.Jitter(base), drawing the jitter when the acquire
// begins.
func (c *StepCtx) UseJit(r *Resource, j Jitterer, base Time) {
	c.push(stepOp{kind: sopUse, r: r, jd: base, jit: j})
}

// WaitUntil advances the process to absolute time t (>= Now at the instant
// the op is reached).
func (c *StepCtx) WaitUntil(t Time) {
	c.push(stepOp{kind: sopWaitUntil, d: t})
}

// Use acquires r in FIFO order, holds it for d, and releases it.
func (c *StepCtx) Use(r *Resource, d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Wait(%v) negative", d))
	}
	c.push(stepOp{kind: sopUse, r: r, d: d})
}

// Acquire obtains one slot of r in FIFO order, queueing while r is full.
// Release is synchronous and needs no proc: steppers call r.Release()
// directly at a juncture where the slot is held (i.e. before pushing the
// ops of that juncture, so the release lands at the correct instant).
func (c *StepCtx) Acquire(r *Resource) {
	c.push(stepOp{kind: sopAcquire, r: r})
}

// WaitSignal blocks until the next Broadcast of s. It must be the
// juncture's only primitive (the process becomes a waiter immediately,
// which cannot be sequenced after queued ops).
func (c *StepCtx) WaitSignal(s *Signal) {
	if c.sp.opLen != 0 {
		panic("sim: WaitSignal after queued step ops")
	}
	s.wait(c.p)
	c.sp.parked = true
}

// GoSteps spawns s as a step process starting at the current simulated
// time. It may be called before Run or from within a running process. The
// returned identity can be used to filter observation hooks.
func (e *Env) GoSteps(name string, s Stepper) *Proc {
	return e.GoStepsAt(e.now, name, s)
}

// GoStepsAt spawns s as a step process whose first Step call executes at
// time at (which must be >= Now).
func (e *Env) GoStepsAt(at Time, name string, s Stepper) *Proc {
	if at < e.now {
		panic(fmt.Sprintf("sim: GoStepsAt(%v) in the past (now %v)", at, e.now))
	}
	sp := e.newStep()
	sp.fn = s
	sp.proc = Proc{env: e, name: name, sp: sp}
	sp.ctx = StepCtx{p: &sp.proc, sp: sp}
	e.live++
	e.schedule(&sp.proc, at)
	return &sp.proc
}

// newStep takes a recycled step frame from the free list, or allocates one
// when the list is empty.
func (e *Env) newStep() *StepProc {
	if n := len(e.freeStep); n > 0 {
		sp := e.freeStep[n-1]
		e.freeStep = e.freeStep[:n-1]
		return sp
	}
	//lint:ignore hotalloc cold fallback: retired step frames are recycled through freeStep, so steady state never reaches this allocation
	return &StepProc{}
}

// retireStep recycles a finished step process's frame. It runs from advance
// once the op queue has drained after End, so no event, waiter entry, or
// hook can still reference the embedded Proc.
func (e *Env) retireStep(sp *StepProc) {
	e.live--
	*sp = StepProc{}
	e.freeStep = append(e.freeStep, sp)
}

// advance runs a step process from a fired event (or waiter wake-up): it
// executes queued ops until one blocks, and calls Step for the next
// juncture whenever the queue drains, until the process blocks again or
// ends. Run calls it for every event it pops.
//
//knl:hotpath the scheduler's dispatch of every event; BenchmarkStepHandoff pins 0 allocs/op
func (e *Env) advance(sp *StepProc) {
	sp.parked = false
	for {
		for sp.opLen > 0 {
			if !sp.execHead() {
				return // op scheduled an event or queued us as a waiter
			}
		}
		if sp.ended {
			e.retireStep(sp)
			return
		}
		sp.fn.Step(&sp.ctx)
		if sp.parked {
			return
		}
		if sp.opLen == 0 && !sp.ended {
			panic("sim: step process " + sp.proc.name + " made no progress")
		}
	}
}

// execHead executes the head op (hook firings, schedule calls,
// waiter-queue entries, slot transfers). It reports whether the op
// completed; false means the process is now waiting for an event or a
// Release/Broadcast wake-up, and the next advance call resumes at the
// recorded phase.
//
//knl:hotpath the step wait path of every primitive; BenchmarkEngineEventThroughput pins 0 allocs/op
func (sp *StepProc) execHead() bool {
	op := &sp.ops[sp.opHead]
	p := &sp.proc
	e := p.env
	// Deferred jitter resolves at op entry — the instant the primitive
	// begins — and exactly once (a Use that parks at its acquire must not
	// redraw on resume).
	if op.jit != nil {
		op.d += op.jit.Jitter(op.jd)
		op.jit = nil
	}
	switch op.kind {
	case sopWait:
		if op.phase == 0 {
			if e.OnWait != nil {
				e.OnWait(p, op.d)
			}
			if e.waitFast(e.now + op.d) {
				break // fused: the wait elapsed inline
			}
			op.phase = 1
			e.schedule(p, e.now+op.d)
			return false
		}
		// phase 1: our event fired, the wait elapsed.
	case sopWaitUntil:
		if op.phase == 0 {
			if op.d < e.now {
				panic(fmt.Sprintf("sim: WaitUntil(%v) in the past (now %v)", op.d, e.now))
			}
			if e.waitFast(op.d) {
				break
			}
			op.phase = 1
			e.schedule(p, op.d)
			return false
		}
	case sopAcquire:
		if op.phase == 0 {
			op.phase = 1
			if !op.r.acquireOrPark(p) {
				return false // queued as a waiter: Release will wake us
			}
		}
		// Either acquired synchronously, or resumed after Release
		// transferred the slot.
	case sopUse:
		switch op.phase {
		case 0:
			if !op.r.acquireOrPark(p) {
				op.phase = 1
				return false
			}
			if e.OnWait != nil {
				e.OnWait(p, op.d)
			}
			if e.waitFast(e.now + op.d) {
				// Fused fast path: an idle resource acquired, held and
				// released within one op execution — no heap traffic, no
				// scheduler bounce.
				op.r.Release()
				break
			}
			op.phase = 2
			e.schedule(p, e.now+op.d)
			return false
		case 1: // woken by Release with the slot transferred
			if e.OnWait != nil {
				e.OnWait(p, op.d)
			}
			if e.waitFast(e.now + op.d) {
				op.r.Release()
				break
			}
			op.phase = 2
			e.schedule(p, e.now+op.d)
			return false
		case 2: // hold elapsed
			op.r.Release()
		}
	}
	sp.ops[sp.opHead] = stepOp{}
	sp.opHead = (sp.opHead + 1) & (len(sp.ops) - 1)
	sp.opLen--
	return true
}
