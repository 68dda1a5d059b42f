package machine

import (
	"knlcap/internal/cache"
	"knlcap/internal/cluster"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// loadStep is the single-line load protocol walk — the hot path of the
// simulator — as a resumable state machine: the building block of the
// pointer-chasing benchmarks and of the flag polls (waitWordStep), driven
// by the spawned kernels (kernelStep). The CHA blocks conflicting requests
// to the line until the forwarding tile has accepted the transaction —
// this serialization (CHASvc + owner port) is what the paper measures as
// the contention slope beta ~ 34 ns.
//
// Each step call runs one juncture: the state reads/writes between two
// blocking points, followed by that juncture's micro-op chain. A chain
// spans several primitives only where no observable state access lies
// between them (placeOf and the controller-position math are pure);
// jittered durations use WaitJit/UseJit so every RNG draw lands at the
// simulated instant its wait begins.
type loadStep struct {
	m    *Machine
	b    memmode.Buffer
	l    cache.Line
	core int
	tile int
	home int
	fwd  int
	edc  int

	place cluster.LinePlace
	base  float64 // unjittered memory tail (device latency + return flight)
	tail  float64 // drawn tail paid after the directory release

	pc    uint8
	cls   srcClass
	newSt cache.State
	fwdSt cache.State

	wb wbState
}

const (
	ldStart = uint8(iota)
	ldDir
	ldProbe
	ldFill
	ldMemTail
	ldMemVictim
	ldMemFinish
	ldFwdCommit
	ldFwdVictim
	ldFwdFinish
	ldDone
)

func (k *loadStep) init(m *Machine, core int, b memmode.Buffer, l cache.Line) {
	k.m = m
	k.b = b
	k.l = l
	k.core = core
	k.tile = core / knl.CoresPerTile
	k.pc = ldStart
}

// step advances the walk by one juncture. States that commit without
// queueing ops fall through to the next state within the same call, so a
// juncture's work is never split across scheduler rounds.
//
//knl:hotpath one simulated memory access; BenchmarkLoadLineHotPath pins 0 allocs/op
func (k *loadStep) step(c *sim.StepCtx) {
	m := k.m
	for {
		switch k.pc {
		case ldStart:
			cs := m.cores[k.core]
			// The directory rules out both local probes when the tile's
			// bit is clear.
			local := tileBit(m.owners(k.l), k.tile)

			// 1. Local L1.
			if lookup(cs.l1, k.l, local).Readable() {
				k.cls = srcL1
				k.pc = ldDone
				c.WaitJit(m, m.P.L1HitNs)
				return
			}

			// 2. Same-tile L2 (including the sibling core's modified data).
			// State commits before the timing wait so a concurrent
			// invalidation cannot interleave between the two.
			if st := lookup(m.tiles[k.tile].l2, k.l, local); st.Readable() {
				var cost float64
				switch st {
				case cache.Modified:
					cost = m.P.L2HitMNs
					m.downgradeSiblingL1(k.tile, k.core, k.l)
				case cache.Exclusive:
					cost = m.P.L2HitENs
				default:
					cost = m.P.L2HitSFNs
				}
				cs.l1.Insert(k.l, cache.Shared)
				k.cls = srcTile
				k.pc = ldDone
				c.WaitJit(m, cost)
				return
			}

			// 3. Off-tile: walk through the home directory. placeOf is a
			// pure placement function, so resolving it before the
			// miss-detect wait queues cannot be observed.
			k.place = m.placeOf(k.b, k.l)
			k.home = k.place.HomeTile
			k.pc = ldDir
			c.WaitJit(m, m.P.L2MissDetectNs)
			m.meshTileToTileOps(c, k.tile, k.home)
			c.Acquire(m.tiles[k.home].cha)
			c.WaitJit(m, m.P.CHASvcNs)
			return

		case ldDir:
			// Holding the home CHA, after its service time.
			if fwd, st, ok := m.forwarder(k.l, m.owners(k.l)); ok {
				k.fwd, k.fwdSt = fwd, st
				svc := m.P.OwnerPortSvcNs
				if st == cache.Modified {
					svc = m.P.OwnerPortSvcMNs
				}
				k.pc = ldFwdCommit
				m.meshTileToTileOps(c, k.home, fwd)
				c.UseJit(m.tiles[fwd].port, m, svc)
				return
			}
			// 4. Memory.
			if m.Policy.Enabled() && k.place.Kind == knl.DDR {
				k.edc = m.Mapper.CacheEDC(k.place.Channel, k.l)
				k.pc = ldProbe
				c.WaitJit(m, m.P.DirMissNs)
				m.meshHopOps(c, m.FP.TilePos(k.home), m.FP.EDCPos[k.edc])
				c.WaitJit(m, m.P.MCDRAMCacheTagNs)
				return
			}
			var ctrlPos knl.Pos
			var fromCtrl float64
			if k.place.Kind == knl.DDR {
				ctrlPos = m.FP.IMCPos[k.place.Channel/3]
				fromCtrl = m.Router.TileToIMC(k.tile, k.place.Channel)
			} else {
				ctrlPos = m.FP.EDCPos[k.place.Channel]
				fromCtrl = m.Router.TileToEDC(k.tile, k.place.Channel)
			}
			ch := m.Mem.Channel(k.place.Kind, k.place.Channel)
			k.base = ch.DeviceLatencyNs() + fromCtrl
			k.pc = ldMemTail
			c.WaitJit(m, m.P.DirMissNs)
			m.meshHopOps(c, m.FP.TilePos(k.home), ctrlPos)
			ch.ServeReadCtx(c, 1)
			return

		case ldProbe:
			// Side-cache tag result, after the MCDRAM tag-check wait.
			if m.Policy.Probe(k.edc, k.l) {
				ch := m.Mem.Channel(knl.MCDRAM, k.edc)
				k.base = ch.DeviceLatencyNs() + m.Router.TileToEDC(k.tile, k.edc)
				k.pc = ldMemTail
				ch.ServeReadCtx(c, 1)
				return
			}
			// Miss: fetch from DDR; data goes to the requester and the
			// MCDRAM cache simultaneously.
			ddr := m.Mem.Channel(knl.DDR, k.place.Channel)
			k.base = ddr.DeviceLatencyNs() + m.Router.TileToIMC(k.tile, k.place.Channel)
			k.pc = ldFill
			m.meshHopOps(c, m.FP.EDCPos[k.edc], m.FP.IMCPos[k.place.Channel/3])
			ddr.ServeReadCtx(c, 1)
			m.Mem.Channel(knl.MCDRAM, k.edc).ServeWriteCtx(c, 1)
			return

		case ldFill:
			// Side-cache fill, after the DDR read and MCDRAM write ports.
			if victim, dirty, ok := m.Policy.Fill(k.edc, k.l); ok && dirty {
				if place, found := m.placeOfLine(victim); found {
					k.pc = ldMemTail
					m.Mem.Channel(knl.DDR, place.Channel).ServeWriteCtx(c, 1)
					return
				}
			}
			k.pc = ldMemTail

		case ldMemTail:
			// The transaction commit: the tail jitter draws here, once the
			// memory ports have served the read.
			k.tail = m.jitter(k.base)
			k.newSt = cache.Exclusive
			if m.owners(k.l) != 0 {
				k.newSt = cache.Forward // stale sharers exist; we become the forwarder
				m.demoteOthers(k.l, 1<<uint(k.tile))
			}
			if victim, dirty := m.installL2Tags(k.tile, k.l, k.newSt); dirty {
				k.wb.start(victim)
				k.pc = ldMemVictim
			} else {
				k.pc = ldMemFinish
			}

		case ldMemVictim:
			k.wb.step(m, c)
			if c.Blocked() {
				return
			}
			if k.wb.pc == wbDone {
				k.pc = ldMemFinish
			}

		case ldMemFinish:
			m.cores[k.core].l1.Insert(k.l, k.newSt)
			m.tiles[k.home].cha.Release()
			k.cls = srcMem
			k.pc = ldDone
			c.WaitPlusJit(k.tail, m, m.P.DeliverNs)
			return

		case ldFwdCommit:
			// The forwarder accepted the transaction (its L2 port served
			// us): the downgrades and the data-return tail commit.
			k.tail = m.forwardCommit(k.l, k.fwd, k.tile, k.fwdSt)
			m.demoteOthers(k.l, 1<<uint(k.tile)|1<<uint(k.fwd))
			if victim, dirty := m.installL2Tags(k.tile, k.l, cache.Forward); dirty {
				k.wb.start(victim)
				k.pc = ldFwdVictim
			} else {
				k.pc = ldFwdFinish
			}

		case ldFwdVictim:
			k.wb.step(m, c)
			if c.Blocked() {
				return
			}
			if k.wb.pc == wbDone {
				k.pc = ldFwdFinish
			}

		case ldFwdFinish:
			m.cores[k.core].l1.Insert(k.l, cache.Forward)
			m.tiles[k.home].cha.Release()
			k.cls = srcRemote
			k.pc = ldDone
			c.Wait(k.tail)
			return

		default: // ldDone
			return
		}
	}
}
