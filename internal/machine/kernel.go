package machine

import (
	"fmt"

	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// This file is the kernel spawn surface: Machine.SpawnKernel runs a
// Program — a host callback emitting KernelOps one at a time — pinned to a
// place, as a stackless step process the scheduler advances inline.
//
// The program callback runs at the completion instant of the previous op,
// so benchmark logic (priming, RNG permutation draws, convergence gating,
// window accounting) runs between ops at the exact simulated instant a
// thread would reach it. Script builds Programs from straight-line code;
// SpawnChase and SpawnStreamTask remain as thin wrappers building Programs.

// KernelOpKind enumerates the kernel operations: the stream ops plus the
// single-line protocol walks and the flag-word primitives.
type KernelOpKind uint8

// StreamOpKind is the historical name of KernelOpKind.
type StreamOpKind = KernelOpKind

const (
	// StreamRead reads N lines of Src starting at SrcFrom.
	StreamRead KernelOpKind = iota
	// StreamWrite writes N lines of Dst starting at DstFrom.
	StreamWrite
	// StreamCopy copies N lines from Src@SrcFrom to Dst@DstFrom.
	StreamCopy
	// StreamTriad performs dst[i] = b[i] + s*c[i] over N lines of
	// Src (b), Src2 (c) and Dst.
	StreamTriad
	// StreamSync waits until absolute time At (window synchronization);
	// it is skipped when At is already past.
	StreamSync
	// KernelLoad reads line Li of B (full protocol walk) and yields the
	// line's payload word as the op result.
	KernelLoad
	// KernelStore writes line Li of B (read-for-ownership walk).
	KernelStore
	// KernelStoreNT writes line Li of B with a non-temporal store.
	KernelStoreNT
	// KernelStoreWord stores line Li of B and sets its payload to Val.
	KernelStoreWord
	// KernelAddWord stores line Li of B, adds Val to its payload, and
	// yields the new value (models a LOCK ADD on an M line).
	KernelAddWord
	// KernelWaitWordGE polls line Li of B until its payload is >= Val,
	// sleeping on the line's watch signal between polls, and yields the
	// observed value.
	KernelWaitWordGE
	// KernelCompute advances the kernel by Dur ns of pure computation.
	KernelCompute
)

// KernelOp is one operation of a kernel program.
type KernelOp struct {
	Kind    KernelOpKind
	Dst     memmode.Buffer
	Src     memmode.Buffer
	Src2    memmode.Buffer
	DstFrom int
	SrcFrom int
	N       int
	NT      bool
	Vector  bool
	At      float64 // StreamSync target time

	B   memmode.Buffer // line/word op target buffer
	Li  int            // line/word op line index
	Val uint64         // StoreWord value / AddWord delta / WaitWordGE threshold
	Dur float64        // KernelCompute duration
}

// StreamOp is the historical name of KernelOp.
type StreamOp = KernelOp

// Program produces the kernel's next op. It is called at the simulated
// instant the previous op completed; prev is that op's result (the loaded
// or observed payload word — zero for ops without one). Returning ok=false
// ends the kernel.
type Program func(now float64, prev uint64) (KernelOp, bool)

// kernelStep drives a Program as a step process.
type kernelStep struct {
	m    *Machine
	core int
	prog Program

	op      KernelOp
	opStart float64
	prev    uint64
	mode    uint8

	st streamStep
	ld loadStep
	ss storeStep
	ww waitWordStep
}

const (
	kmIdle = uint8(iota)
	kmStream
	kmLoad
	kmStore
	kmWait
)

func (t *kernelStep) Step(c *sim.StepCtx) {
	m := t.m
	for {
		switch t.mode {
		case kmStream:
			t.st.run(c)
			if c.Blocked() {
				return
			}
			if t.st.pc != stDone {
				continue
			}
			t.prev = 0
			t.mode = kmIdle

		case kmLoad:
			t.ld.step(c)
			if c.Blocked() {
				return
			}
			if t.ld.pc != ldDone {
				continue
			}
			m.trace(OpRecord{Start: t.opStart, End: c.Now(), Core: t.core,
				Kind: OpLoad, Source: t.ld.cls.String(), Line: t.ld.l})
			t.prev = m.wordOf(t.ld.l)
			t.mode = kmIdle

		case kmStore:
			t.ss.step(c)
			if c.Blocked() {
				return
			}
			if t.ss.pc != ssDone {
				continue
			}
			kind := OpStore
			if t.op.Kind == KernelStoreNT {
				kind = OpStoreNT
			}
			m.trace(OpRecord{Start: t.opStart, End: c.Now(), Core: t.core,
				Kind: kind, Line: t.ss.l})
			t.prev = 0
			switch t.op.Kind {
			case KernelStoreWord:
				m.setWord(t.ss.l, t.op.Val)
			case KernelAddWord:
				t.prev = m.addWord(t.ss.l, t.op.Val)
			}
			t.mode = kmIdle

		case kmWait:
			t.ww.step(c)
			if c.Blocked() {
				return
			}
			if t.ww.pc != wwDone {
				continue
			}
			t.prev = t.ww.got
			t.mode = kmIdle

		default: // kmIdle: fetch and dispatch the next op
			op, ok := t.prog(c.Now(), t.prev)
			if !ok {
				c.End()
				return
			}
			t.op = op
			t.opStart = c.Now()
			switch op.Kind {
			case StreamSync:
				t.prev = 0
				if op.At > c.Now() {
					c.WaitUntil(op.At)
					return
				}
			case KernelLoad:
				t.ld.init(m, t.core, op.B, op.B.Line(op.Li))
				t.mode = kmLoad
			case KernelStore, KernelStoreWord, KernelAddWord:
				t.ss.init(m, t.core, op.B, op.B.Line(op.Li))
				t.mode = kmStore
			case KernelStoreNT:
				t.ss.initNT(m, t.core, op.B, op.B.Line(op.Li))
				t.mode = kmStore
			case KernelWaitWordGE:
				t.ww.init(m, t.core, op.B, op.B.Line(op.Li), op.Val)
				t.mode = kmWait
			case KernelCompute:
				t.prev = 0
				c.Wait(op.Dur)
				return
			default: // stream ops
				join := t.st.join // keep the flush join (and its Signal) across ops
				t.st = streamStep{m: m, core: t.core, op: op, join: join}
				t.mode = kmStream
			}
		}
	}
}

// SpawnKernel starts a kernel pinned to place that executes the ops
// produced by prog, one at a time, until prog reports no more work. The
// returned process identity can be used to filter observation hooks.
func (m *Machine) SpawnKernel(place knl.Place, prog Program) *sim.Proc {
	if place.Core < 0 || place.Core >= m.NumCores() {
		panic(fmt.Sprintf("machine: place core %d out of range", place.Core))
	}
	//lint:ignore hotalloc one frame per spawned measurement kernel
	return m.Env.GoSteps(place.String(), &kernelStep{m: m, core: place.Core, prog: prog})
}

// Run executes the simulation to completion and returns the final time.
func (m *Machine) Run() (sim.Time, error) { return m.Env.Run() }

// SpawnStreamTask starts a kernel pinned to place that executes the stream
// ops produced by next, one at a time, until next reports no more work.
// next runs at the simulated instant the previous op completed, so it may
// observe clocks and update benchmark accounting.
func (m *Machine) SpawnStreamTask(place knl.Place, next func(now float64) (StreamOp, bool)) *sim.Proc {
	return m.SpawnKernel(place, func(now float64, _ uint64) (KernelOp, bool) {
		return next(now)
	})
}

// ChaseOps describes a pointer-chase kernel: passes of Len dependent
// single-line loads over B, visiting lines in the permutation order Perm
// (access i touches Perm[i%len(Perm)], so the caller may refill Perm
// between passes). The callbacks run between loads, at these simulated
// instants:
//
//   - NextPass before each pass (prime the cache state, draw the next
//     permutation); returning false ends the kernel.
//   - AccessDone after each completed load (convergence-trace marks).
//   - PassDone with the pass's elapsed simulated time.
type ChaseOps struct {
	B          memmode.Buffer
	Perm       []int
	Len        int
	NextPass   func() bool
	AccessDone func()
	PassDone   func(elapsed float64)
}

// SpawnChase starts a pointer-chase kernel pinned to place and returns its
// process identity (so observation hooks can filter on it).
func (m *Machine) SpawnChase(place knl.Place, o ChaseOps) *sim.Proc {
	nl := len(o.Perm)
	i := 0
	passStart := 0.0
	inPass := false
	return m.SpawnKernel(place, func(now float64, _ uint64) (KernelOp, bool) {
		if inPass {
			if o.AccessDone != nil {
				o.AccessDone()
			}
			i++
			if i < o.Len {
				return KernelOp{Kind: KernelLoad, B: o.B, Li: o.Perm[i%nl]}, true
			}
			inPass = false
			if o.PassDone != nil {
				o.PassDone(now - passStart)
			}
		}
		if !o.NextPass() {
			return KernelOp{}, false
		}
		i = 0
		passStart = now
		inPass = true
		return KernelOp{Kind: KernelLoad, B: o.B, Li: o.Perm[0]}, true
	})
}
