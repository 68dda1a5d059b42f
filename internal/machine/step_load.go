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
// simulated instant its wait begins. A miss reads memory through the
// memRead sub-walk (ldMem), shared with the store walk's RFO; a dirty L2
// victim runs the wbState write-back (ldVictim).
type loadStep struct {
	m    *Machine
	b    memmode.Buffer
	l    cache.Line
	core int
	tile int
	home int
	fwd  int

	place cluster.LinePlace
	tail  float64 // drawn tail paid after the directory release

	pc    uint8
	after uint8 // state to resume at once a victim write-back drains
	cls   srcClass
	newSt cache.State
	fwdSt cache.State

	mem memRead
	wb  wbState
}

const (
	ldStart = uint8(iota)
	ldDir
	ldMem
	ldMemTail
	ldMemFinish
	ldFwdCommit
	ldFwdFinish
	ldVictim
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
				k.pc = ldFwdCommit
				m.meshTileToTileOps(c, k.home, fwd)
				c.UseJit(m.tiles[fwd].port, m, m.ownerPortSvc(st))
				return
			}
			// 4. Memory.
			k.mem.start()
			k.pc = ldMem

		case ldMem:
			k.mem.step(m, c, k.l, k.tile, k.place)
			if c.Blocked() {
				return
			}
			if k.mem.pc == mrDone {
				k.pc = ldMemTail
			}

		case ldMemTail:
			// The transaction commit: the tail jitter draws here, once the
			// memory ports have served the read.
			k.tail = m.jitter(k.mem.base)
			k.newSt = cache.Exclusive
			if m.owners(k.l) != 0 {
				k.newSt = cache.Forward // stale sharers exist; we become the forwarder
				m.demoteOthers(k.l, 1<<uint(k.tile))
			}
			k.enterInstall(k.newSt, ldMemFinish)

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
			k.enterInstall(cache.Forward, ldFwdFinish)

		case ldFwdFinish:
			m.cores[k.core].l1.Insert(k.l, cache.Forward)
			m.tiles[k.home].cha.Release()
			k.cls = srcRemote
			k.pc = ldDone
			c.Wait(k.tail)
			return

		case ldVictim:
			k.wb.step(m, c)
			if c.Blocked() {
				return
			}
			if k.wb.pc == wbDone {
				k.pc = k.after
			}

		default: // ldDone
			return
		}
	}
}

// enterInstall commits the requester's L2 tag insert in state st and
// routes through the victim write-back when the evicted line was dirty,
// resuming at after (serialStep.enterInstall is the stream twin).
func (k *loadStep) enterInstall(st cache.State, after uint8) {
	if victim, dirty := k.m.installL2Tags(k.tile, k.l, st); dirty {
		k.wb.start(victim)
		k.after = after
		k.pc = ldVictim
		return
	}
	k.pc = after
}
