package machine

import (
	"knlcap/internal/cache"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// waitWordStep is the flag-poll loop of KernelWaitWordGE as a resumable
// state machine: load the line (hit while our cached copy is intact, a
// coherence miss after an invalidation), sample the payload word, and if
// it has not reached the threshold sleep on the line's watch signal until
// the next visible write. The WaitSignal juncture is the step-side of the
// signal-watch idiom: it must be the juncture's sole primitive, and the
// watch slot is re-resolved on every entry because the line table may have
// grown while the process slept.
type waitWordStep struct {
	m    *Machine
	b    memmode.Buffer
	l    cache.Line
	core int
	v    uint64
	got  uint64

	ver     uint64 // notify version sampled before the poll's load
	opStart float64
	ld      loadStep
	pc      uint8
}

const (
	wwPoll = uint8(iota)
	wwLoad
	wwWait
	wwDone
)

func (k *waitWordStep) init(m *Machine, core int, b memmode.Buffer, l cache.Line, v uint64) {
	k.m = m
	k.b = b
	k.l = l
	k.core = core
	k.v = v
	k.pc = wwPoll
	m.markWatched(l)
}

func (k *waitWordStep) step(c *sim.StepCtx) {
	m := k.m
	for {
		switch k.pc {
		case wwPoll:
			k.ver = m.watchVersion(k.l)
			k.opStart = c.Now()
			k.ld.init(m, k.core, k.b, k.l)
			k.pc = wwLoad

		case wwLoad:
			k.ld.step(c)
			if c.Blocked() {
				return
			}
			if k.ld.pc != ldDone {
				continue
			}
			m.trace(OpRecord{Start: k.opStart, End: c.Now(), Core: k.core,
				Kind: OpLoad, Source: k.ld.cls.String(), Line: k.l})
			if got := m.wordOf(k.l); got >= k.v {
				k.got = got
				k.pc = wwDone
				return
			}
			k.pc = wwWait

		case wwWait:
			// The side-table pointer is only valid until the next blocking
			// point, so re-resolve after every wake-up (init's markWatched
			// grew the side table over the line).
			e := m.extOf(k.l)
			if e.watchVer > k.ver {
				k.pc = wwPoll
				continue
			}
			if e.sig == nil {
				e.sig = sim.NewSignal(m.Env)
			}
			c.WaitSignal(e.sig)
			return

		default: // wwDone
			return
		}
	}
}
