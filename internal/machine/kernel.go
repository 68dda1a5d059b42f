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
// thread would reach it. Script builds Programs from straight-line code.

// KernelOpKind enumerates the kernel operations: the stream ops plus the
// single-line protocol walks and the flag-word primitives.
type KernelOpKind uint8

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
