package machine

import (
	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/sim"
)

// wbState is the write-back protocol walk as a resumable state machine,
// run inside the load, store and stream walks (victim write-backs), as the
// single-line NT store's posted line write, and as the posted write-back
// step process (wbStep). In cache/hybrid mode, DDR write-backs land in the
// MCDRAM cache ("write-backs are made directly to MCDRAM", paper Section
// II-C). Each step call runs one juncture — the state reads and writes
// between two blocking points — and queues that juncture's channel
// occupancies on c.
//
// The side-cache probe happens after the MCDRAM write completes (wbFill),
// and MarkDirty after a dirty victim's DDR flush (wbMark), so a concurrent
// process observes policy state at those instants.
type wbState struct {
	pc  uint8
	edc int
	l   cache.Line
}

const (
	wbStart = uint8(iota)
	wbFill
	wbMark
	wbDone
)

func (w *wbState) start(l cache.Line) {
	w.l = l
	w.pc = wbStart
}

func (w *wbState) step(m *Machine, c *sim.StepCtx) {
	switch w.pc {
	case wbStart:
		place, ok := m.placeOfLine(w.l)
		if !ok {
			w.pc = wbDone // line outside any allocation (bench-internal scratch)
			return
		}
		if m.Policy.Enabled() && place.Kind == knl.DDR {
			w.edc = m.Mapper.CacheEDC(place.Channel, w.l)
			w.pc = wbFill
			m.Mem.Channel(knl.MCDRAM, w.edc).ServeWriteCtx(c, 1)
			return
		}
		w.pc = wbDone
		m.Mem.Channel(place.Kind, place.Channel).ServeWriteCtx(c, 1)
	case wbFill:
		if !m.Policy.Probe(w.edc, w.l) {
			if ch, ok := m.sideFill(w.edc, w.l); ok {
				w.pc = wbMark
				m.Mem.Channel(knl.DDR, ch).ServeWriteCtx(c, 1)
				return
			}
		}
		m.Policy.MarkDirty(w.edc, w.l)
		w.pc = wbDone
	case wbMark:
		m.Policy.MarkDirty(w.edc, w.l)
		w.pc = wbDone
	}
}

// wbStep wraps wbState as a spawned step process for posted write-backs.
type wbStep struct {
	m  *Machine
	wb wbState
}

func (w *wbStep) Step(c *sim.StepCtx) {
	w.wb.step(w.m, c)
	if w.wb.pc == wbDone {
		c.End()
	}
}
