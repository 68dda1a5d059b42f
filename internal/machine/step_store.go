package machine

import (
	"math/bits"

	"knlcap/internal/cache"
	"knlcap/internal/cluster"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// storeStep is the single-line store protocol walk — the RFO path
// (init) and the non-temporal streaming variant (initNT) — as a
// resumable state machine driven by the spawned kernels (kernelStep). The
// home CHA is held until the Modified state is installed, so conflicting
// requests block at the directory exactly as the loads do; an NT store
// invalidates cached copies and goes straight to memory without
// read-for-ownership, so its core-visible cost is small (the store is
// posted) while the memory ports are charged for the write.
//
// Both paths embed the shared sub-walks instead of repeating them: an RFO
// miss reads memory through memRead (ssMem), as the load walk does; a
// dirty L2 victim and the NT store's posted line write both run wbState
// (ssVictim, ntWrite), the write-back walk that fills the side cache.
//
// The directory-dependent waits force junctures the load walk doesn't
// have: the CHA service time scales with the owner count read under the
// directory lock, so the Acquire cannot co-queue its service wait (ssDir),
// and the NT walk re-reads the owner set after acquiring (ntDir).
// Jittered durations use WaitJit/UseJit so every RNG draw lands at the
// simulated instant its wait begins; the memory tail draws both its
// jitters eagerly at the commit juncture (ssMemTail), while the load walk
// defers its DeliverNs draw to the final wait.
type storeStep struct {
	m    *Machine
	b    memmode.Buffer
	l    cache.Line
	core int
	tile int
	home int
	fwd  int

	place cluster.LinePlace
	tail  float64 // drawn tail paid after the directory release

	pc          uint8
	otherOwners int
	fwdSt       cache.State

	mem memRead
	wb  wbState
}

const (
	ssStart = uint8(iota)
	ssDir
	ssOwn
	ssMem
	ssMemTail
	ssFwdCommit
	ssInv
	ssCommit
	ssVictim
	ssFinish
	ssNotify
	ntStart
	ntDir
	ntInv
	ntWrite
	ntNotify
	ssDone
)

func (k *storeStep) init(m *Machine, core int, b memmode.Buffer, l cache.Line) {
	k.m = m
	k.b = b
	k.l = l
	k.core = core
	k.tile = core / knl.CoresPerTile
	k.pc = ssStart
}

// initNT points the machine at the non-temporal walk instead.
func (k *storeStep) initNT(m *Machine, core int, b memmode.Buffer, l cache.Line) {
	k.init(m, core, b, l)
	k.pc = ntStart
}

// step advances the walk by one juncture. States that commit without
// queueing ops fall through to the next state within the same call.
//
//knl:hotpath one simulated store; BenchmarkStoreLineHotPath pins 0 allocs/op
func (k *storeStep) step(c *sim.StepCtx) {
	m := k.m
	for {
		switch k.pc {
		case ssStart:
			cs := m.cores[k.core]
			// The directory rules out both local probes when the tile's
			// bit is clear.
			local := tileBit(m.owners(k.l), k.tile)

			// 1. Writable in own L1: silent upgrade E->M or plain M hit.
			// State commits before the timing wait, as in the load walk.
			if lookup(cs.l1, k.l, local).Writable() {
				cs.l1.SetState(k.l, cache.Modified)
				m.tiles[k.tile].l2.SetState(k.l, cache.Modified)
				k.pc = ssNotify
				c.WaitJit(m, m.P.StoreHitNs)
				return
			}

			// 2. Writable in own tile's L2 (sibling snoop stays on-tile).
			if lookup(m.tiles[k.tile].l2, k.l, local).Writable() {
				m.tiles[k.tile].l2.SetState(k.l, cache.Modified)
				m.invalidateTileL1s(k.tile, k.l)
				cs.l1.Insert(k.l, cache.Modified)
				k.pc = ssNotify
				c.WaitJit(m, m.P.L2HitENs)
				return
			}

			// 3. Request-for-ownership through the home directory, held
			// until the Modified state is installed. The CHA service wait
			// cannot be co-queued with the Acquire: its duration depends
			// on the owner count read once the directory is held (ssDir).
			k.place = m.placeOf(k.b, k.l)
			k.home = k.place.HomeTile
			k.pc = ssDir
			c.WaitJit(m, m.P.L2MissDetectNs)
			m.meshTileToTileOps(c, k.tile, k.home)
			c.Acquire(m.tiles[k.home].cha)
			return

		case ssDir:
			// Holding the home CHA: the invalidation fan-out scales the
			// service time with the other owners.
			k.otherOwners = bits.OnesCount64(m.owners(k.l) &^ (1 << uint(k.tile)))
			k.pc = ssOwn
			c.WaitJit(m, m.P.CHASvcNs+m.P.InvPerOwnerNs*float64(k.otherOwners))
			return

		case ssOwn:
			// After the CHA service: pick the data source.
			hadCopy := m.tiles[k.tile].l2.Peek(k.l).Readable()
			if fwd, st, ok := m.forwarder(k.l, m.owners(k.l)); ok && fwd != k.tile {
				// Fetch the data with the invalidation (RFO forward).
				k.fwd, k.fwdSt = fwd, st
				k.pc = ssFwdCommit
				m.meshTileToTileOps(c, k.home, fwd)
				c.UseJit(m.tiles[fwd].port, m, m.ownerPortSvc(st))
				return
			}
			if hadCopy {
				// Upgrade in place: we hold a readable (S/F) copy and no
				// other tile can forward; only the invalidations remain.
				k.tail = 0
				k.pc = ssInv
				continue
			}
			// 4. Memory read, as in the load walk's miss path.
			k.mem.start()
			k.pc = ssMem

		case ssMem:
			k.mem.step(m, c, k.l, k.tile, k.place)
			if c.Blocked() {
				return
			}
			if k.mem.pc == mrDone {
				k.pc = ssMemTail
			}

		case ssMemTail:
			// Both tail jitters draw here, once the memory ports have served
			// the read — not at the final wait (the load walk defers its
			// DeliverNs draw; the store must not).
			k.tail = m.jitter(k.mem.base) + m.jitter(m.P.DeliverNs)
			k.pc = ssInv

		case ssFwdCommit:
			// The forwarder accepted the transaction: the downgrades and
			// the data-return tail commit.
			k.tail = m.forwardCommit(k.l, k.fwd, k.tile, k.fwdSt)
			k.pc = ssInv

		case ssInv:
			if k.otherOwners > 0 {
				k.pc = ssCommit
				c.WaitJit(m, m.P.InvRoundTripNs)
				return
			}
			k.pc = ssCommit

		case ssCommit:
			// Invalidations land and the Modified state installs; a dirty
			// L2 victim drives its write-back while the CHA is still held.
			m.invalidateOthers(k.tile, k.l)
			if victim, dirty := m.installL2Tags(k.tile, k.l, cache.Modified); dirty {
				k.wb.start(victim)
				k.pc = ssVictim
			} else {
				k.pc = ssFinish
			}

		case ssVictim:
			k.wb.step(m, c)
			if c.Blocked() {
				return
			}
			if k.wb.pc == wbDone {
				k.pc = ssFinish
			}

		case ssFinish:
			m.invalidateTileL1s(k.tile, k.l)
			m.cores[k.core].l1.Insert(k.l, cache.Modified)
			m.tiles[k.home].cha.Release()
			k.pc = ssNotify
			c.Wait(k.tail)
			return

		case ssNotify:
			// Pollers are notified after the final wait completes.
			m.notify(k.l)
			k.pc = ssDone
			return

		case ntStart:
			// Non-temporal: invalidate cached copies (if any), then post
			// the line's write to memory. The owner set is re-read under
			// the directory lock (ntDir).
			k.wb.start(k.l)
			if m.owners(k.l) != 0 {
				k.home = m.placeOf(k.b, k.l).HomeTile
				k.pc = ntDir
				m.meshTileToTileOps(c, k.tile, k.home)
				c.Acquire(m.tiles[k.home].cha)
				return
			}
			k.pc = ntWrite

		case ntDir:
			owners := m.owners(k.l) // re-read under the directory lock
			k.pc = ntInv
			c.WaitJit(m, m.P.CHASvcNs+m.P.InvPerOwnerNs*float64(bits.OnesCount64(owners)))
			c.WaitJit(m, m.P.InvRoundTripNs)
			return

		case ntInv:
			m.invalidateOthers(-1, k.l) // -1: invalidate everywhere, incl. own tile
			m.tiles[k.home].cha.Release()
			k.pc = ntWrite

		case ntWrite:
			// The posted write is the write-back walk on the line itself;
			// the posted-store wait joins the juncture that finishes it.
			k.wb.step(m, c)
			if k.wb.pc == wbDone {
				k.pc = ntNotify
				c.WaitJit(m, m.P.StorePostNs)
				return
			}
			if c.Blocked() {
				return
			}

		case ntNotify:
			// Pollers are notified after the posted-store wait completes.
			m.notify(k.l)
			k.pc = ssDone
			return

		default: // ssDone
			return
		}
	}
}
