package machine

import (
	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// Streams model vectorized bulk kernels (read/write/copy/triad) with
// memory-level parallelism. Each chunk of MLP lines pays
//
//	max(full protocol latency of the leading line, sum of serialized costs)
//
// because hardware overlaps the flight of outstanding lines with the port
// service of their predecessors. The serialized costs (forwarding-port and
// memory-channel occupancies) go through sim Resources, so multi-thread
// contention and aggregate ceilings emerge from queueing; the latency bound
// makes single-thread bandwidth latency-limited. This is the structure of
// the paper's measurements (Table I bandwidth rows, Table II, Figs. 5/9).

// maxChans bounds the per-kind channel count (8 EDCs > 6 DDR channels).
const maxChans = 8

// pending accumulates batched channel work for one chunk as dense per-kind
// per-channel counters — a chunk touches at most a handful of channels, and
// the former map version allocated and hashed on every booked line. The
// zero value is ready to use and a flush leaves it empty again, so streams
// keep one instance on the stack for their whole run.
type pending struct {
	reads  [2][maxChans]int32
	writes [2][maxChans]int32
	// async lines (write-backs of forwarded M data) are served by a helper
	// process so they consume channel bandwidth without delaying the stream.
	async  [2][maxChans]int32
	nAsync int32
}

// pendWriteBack books an asynchronous dirty write-back of line l.
func (m *Machine) pendWriteBack(pd *pending, l cache.Line) {
	b, ok := m.bufferOfLine(l)
	if !ok {
		return
	}
	ch := m.channelOf(b, l)
	if m.Policy.Enabled() && b.Kind == knl.DDR {
		edc := m.Mapper.CacheEDC(ch, l)
		pd.async[knl.MCDRAM][edc]++
		pd.nAsync++
		if !m.Policy.Probe(edc, l) {
			if victim, dirty, vok := m.Policy.Fill(edc, l); vok && dirty {
				if vb, found := m.bufferOfLine(victim); found {
					pd.async[knl.DDR][m.channelOf(vb, victim)]++
					pd.nAsync++
				}
			}
		}
		m.Policy.MarkDirty(edc, l)
		return
	}
	pd.async[b.Kind][ch]++
	pd.nAsync++
}

// pendMemRead books a batched memory read of line l, routing through the
// MCDRAM side cache in cache/hybrid mode.
func (m *Machine) pendMemRead(pd *pending, b memmode.Buffer, l cache.Line) {
	ch := m.channelOf(b, l)
	if m.Policy.Enabled() && b.Kind == knl.DDR {
		edc := m.Mapper.CacheEDC(ch, l)
		if m.Policy.Probe(edc, l) {
			pd.reads[knl.MCDRAM][edc]++
			return
		}
		pd.reads[knl.DDR][ch]++
		pd.writes[knl.MCDRAM][edc]++ // simultaneous cache fill
		if victim, dirty, ok := m.Policy.Fill(edc, l); ok && dirty {
			if vb, found := m.bufferOfLine(victim); found {
				pd.writes[knl.DDR][m.channelOf(vb, victim)]++
			}
		}
		return
	}
	pd.reads[b.Kind][ch]++
}

// pendMemWrite books a batched memory write of line l (NT stores), routing
// through the MCDRAM side cache in cache/hybrid mode.
func (m *Machine) pendMemWrite(pd *pending, b memmode.Buffer, l cache.Line) {
	ch := m.channelOf(b, l)
	if m.Policy.Enabled() && b.Kind == knl.DDR {
		edc := m.Mapper.CacheEDC(ch, l)
		pd.writes[knl.MCDRAM][edc]++
		if !m.Policy.Probe(edc, l) {
			if victim, dirty, ok := m.Policy.Fill(edc, l); ok && dirty {
				if vb, found := m.bufferOfLine(victim); found {
					pd.writes[knl.DDR][m.channelOf(vb, victim)]++
				}
			}
		}
		m.Policy.MarkDirty(edc, l)
		return
	}
	pd.writes[b.Kind][ch]++
}

// classify peeks where a line would be found, with no side effects.
func (m *Machine) classify(core int, l cache.Line) srcClass {
	if m.cores[core].l1.Peek(l).Readable() {
		return srcL1
	}
	tile := core / knl.CoresPerTile
	if m.tiles[tile].l2.Peek(l).Readable() {
		return srcTile
	}
	if _, _, ok := m.forwarder(l); ok {
		return srcRemote
	}
	return srcMem
}

// loadLatencyEstimate computes the full protocol latency a single pipelined
// load of line l would see, without executing the walk. Streams use it as
// the chunk's latency bound.
func (m *Machine) loadLatencyEstimate(core int, b memmode.Buffer, l cache.Line) float64 {
	tile := core / knl.CoresPerTile
	switch m.classify(core, l) {
	case srcL1:
		return m.P.L1HitNs
	case srcTile:
		switch m.tiles[tile].l2.Peek(l) {
		case cache.Modified:
			return m.P.L2HitMNs
		case cache.Exclusive:
			return m.P.L2HitENs
		default:
			return m.P.L2HitSFNs
		}
	case srcRemote:
		place := m.placeOf(b, l)
		fwd, st, _ := m.forwarder(l)
		extra := m.P.OwnerExtraSFNs
		switch st {
		case cache.Modified:
			extra = m.P.OwnerExtraMNs
		case cache.Exclusive:
			extra = m.P.OwnerExtraENs
		}
		return m.P.L2MissDetectNs +
			m.Router.TileToTile(tile, place.HomeTile) + m.P.CHASvcNs +
			m.Router.TileToTile(place.HomeTile, fwd) + extra +
			m.Router.TileToTile(fwd, tile) + m.P.DeliverNs
	default:
		place := m.placeOf(b, l)
		base := m.P.L2MissDetectNs +
			m.Router.TileToTile(tile, place.HomeTile) +
			m.P.CHASvcNs + m.P.DirMissNs + m.P.DeliverNs
		if m.Policy.Enabled() && place.Kind == knl.DDR {
			edc := m.Mapper.CacheEDC(place.Channel, l)
			base += m.Router.TileToEDC(place.HomeTile, edc) + m.P.MCDRAMCacheTagNs
			if m.Policy.Peek(edc, l) {
				return base + m.Mem.MCDRAM[edc].DeviceLatencyNs() +
					m.Router.TileToEDC(tile, edc)
			}
			return base + m.Router.EDCToIMC(edc, place.Channel) +
				m.Mem.DDR[place.Channel].DeviceLatencyNs() +
				m.Router.TileToIMC(tile, place.Channel)
		}
		if place.Kind == knl.DDR {
			return base + m.Router.TileToIMC(place.HomeTile, place.Channel) +
				m.Mem.DDR[place.Channel].DeviceLatencyNs() +
				m.Router.TileToIMC(tile, place.Channel)
		}
		return base + m.Router.TileToEDC(place.HomeTile, place.Channel) +
			m.Mem.MCDRAM[place.Channel].DeviceLatencyNs() +
			m.Router.TileToEDC(tile, place.Channel)
	}
}

// mlpFor picks the chunk depth from the leading line's source class.
func (m *Machine) mlpFor(cls srcClass, vector, copyLike bool) int {
	switch cls {
	case srcL1, srcTile:
		return m.P.MLPCopy
	case srcRemote:
		if copyLike {
			return m.P.MLPCopy
		}
		if vector {
			return m.P.MLPVecRead
		}
		return m.P.MLPScalarRead
	default: // memory
		if vector || copyLike {
			return m.P.MLPMem
		}
		return m.P.MLPMem / 2
	}
}

// chunkStart stamps the anchor of a chunk's latency bound, notifying the
// convergence-gate observer (Machine.OnChunkStart) so a replay can anchor
// the matching top-up on its own clock.
func (m *Machine) chunkStart(p *sim.Proc) float64 {
	if m.OnChunkStart != nil {
		m.OnChunkStart(p)
	}
	return m.Env.Now()
}

// writeDrainLatency is the retirement bound of an NT write chunk: the
// write-combining buffers drain to the device. Cached (write-allocate)
// writes additionally wait for the RFO fetch (see streamStep), which is
// why the paper needs NT hints to approach peak bandwidth.
func (m *Machine) writeDrainLatency(b memmode.Buffer) float64 {
	kind := b.Kind
	if m.Policy.Enabled() && kind == knl.DDR {
		kind = knl.MCDRAM // writes land in the side cache
	}
	var dev float64
	if kind == knl.DDR {
		dev = m.Mem.DDR[0].DeviceLatencyNs()
	} else {
		dev = m.Mem.MCDRAM[0].DeviceLatencyNs()
	}
	return dev + 20 // device plus average mesh traversal
}
