package machine

import (
	"knlcap/internal/cache"
	"knlcap/internal/cluster"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// memRead is the directory-to-memory read as a resumable state machine,
// run inside the load walk (a miss) and the store walk (an RFO miss) with
// the home CHA held: the directory-miss wait, the request hop from the
// home tile to the side-cache tag or the memory controller, the side-cache
// probe, the DDR read with its simultaneous MCDRAM fill, and the fill's
// dirty-victim write-back. Probe and Fill run at the junctures after the
// tag check and after the DDR and MCDRAM ports, so a concurrent process
// observes policy state at those instants.
//
// Once done, base holds the unjittered memory tail (device latency plus
// the return flight to the requesting tile); each walk draws its own tail
// from it.
type memRead struct {
	pc   uint8
	edc  int
	base float64
}

const (
	mrStart = uint8(iota)
	mrProbe
	mrFill
	mrDone
)

func (r *memRead) start() { r.pc = mrStart }

// step advances the read by one juncture for line l of the given
// placement, requested by tile.
func (r *memRead) step(m *Machine, c *sim.StepCtx, l cache.Line, tile int, place cluster.LinePlace) {
	switch r.pc {
	case mrStart:
		home := m.FP.TilePos(place.HomeTile)
		if m.Policy.Enabled() && place.Kind == knl.DDR {
			r.edc = m.Mapper.CacheEDC(place.Channel, l)
			r.pc = mrProbe
			c.WaitJit(m, m.P.DirMissNs)
			m.meshHopOps(c, home, m.FP.EDCPos[r.edc])
			c.WaitJit(m, m.P.MCDRAMCacheTagNs)
			return
		}
		var ctrlPos knl.Pos
		var fromCtrl float64
		if place.Kind == knl.DDR {
			ctrlPos = m.FP.IMCPos[place.Channel/3]
			fromCtrl = m.Router.TileToIMC(tile, place.Channel)
		} else {
			ctrlPos = m.FP.EDCPos[place.Channel]
			fromCtrl = m.Router.TileToEDC(tile, place.Channel)
		}
		ch := m.Mem.Channel(place.Kind, place.Channel)
		r.base = ch.DeviceLatencyNs() + fromCtrl
		r.pc = mrDone
		c.WaitJit(m, m.P.DirMissNs)
		m.meshHopOps(c, home, ctrlPos)
		ch.ServeReadCtx(c, 1)

	case mrProbe:
		// Side-cache tag result, after the MCDRAM tag-check wait.
		if m.Policy.Probe(r.edc, l) {
			ch := m.Mem.Channel(knl.MCDRAM, r.edc)
			r.base = ch.DeviceLatencyNs() + m.Router.TileToEDC(tile, r.edc)
			r.pc = mrDone
			ch.ServeReadCtx(c, 1)
			return
		}
		// Miss: fetch from DDR; data goes to the requester and the
		// MCDRAM cache simultaneously.
		ddr := m.Mem.Channel(knl.DDR, place.Channel)
		r.base = ddr.DeviceLatencyNs() + m.Router.TileToIMC(tile, place.Channel)
		r.pc = mrFill
		m.meshHopOps(c, m.FP.EDCPos[r.edc], m.FP.IMCPos[place.Channel/3])
		ddr.ServeReadCtx(c, 1)
		m.Mem.Channel(knl.MCDRAM, r.edc).ServeWriteCtx(c, 1)

	case mrFill:
		// Side-cache fill, after the DDR read and MCDRAM write ports.
		r.pc = mrDone
		if ch, ok := m.sideFill(r.edc, l); ok {
			m.Mem.Channel(knl.DDR, ch).ServeWriteCtx(c, 1)
		}
	}
}

// sideFill installs line l in EDC edc's side-cache slice. When that
// displaces a dirty line of a known buffer, it returns the DDR channel the
// victim must be written back to. Every fill of the side cache, timed
// (memRead, wbState) or booked (pendMemRead, pendWrite), goes through it.
func (m *Machine) sideFill(edc int, l cache.Line) (ch int, ok bool) {
	victim, dirty, ok := m.Policy.Fill(edc, l)
	if !ok || !dirty {
		return 0, false
	}
	b, found := m.bufferOfLine(victim)
	if !found {
		return 0, false
	}
	return m.channelOf(b, victim), true
}

// WarmSideCache installs every line of b, in line order, in the side-cache
// slot memRead would fill, at zero simulated cost and with no victim
// write-back; dirty marks each line as written. A bandwidth benchmark
// calls it to start its windows from the side cache's steady state.
func (m *Machine) WarmSideCache(b memmode.Buffer, dirty bool) {
	for li := 0; li < b.NumLines(); li++ {
		l := b.Line(li)
		edc := m.Mapper.CacheEDC(m.placeOf(b, l).Channel, l)
		m.sideFill(edc, l)
		if dirty {
			m.Policy.MarkDirty(edc, l)
		}
	}
}
