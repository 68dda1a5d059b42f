package machine

import (
	"math/bits"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

// srcClass classifies where a load found its data; streams use it to pick
// the memory-level parallelism of the following chunk.
type srcClass int

const (
	srcL1 srcClass = iota
	srcTile
	srcRemote
	srcMem
)

func (s srcClass) String() string {
	switch s {
	case srcL1:
		return "L1"
	case srcTile:
		return "tile"
	case srcRemote:
		return "remote"
	default:
		return "mem"
	}
}

// asyncWriteBack charges the memory ports for a posted write-back without
// delaying the requesting thread (the data return and the write-back travel
// independently): the walk runs as its own step process.
func (m *Machine) asyncWriteBack(l cache.Line) {
	//lint:ignore hotalloc spawning the posted-write-back process is the allocation; only dirty-forward misses take this path (BenchmarkLoadLineHotPath stays at 0 allocs/op)
	w := &wbStep{m: m}
	w.wb.start(l)
	m.Env.GoSteps("wb", w)
}

// lookup is c.Lookup(l) for a tag array the directory may already rule
// out: when present is false (the requester's tile bit is clear in the
// line's owner word, so neither its L1 nor its L2 holds the line; see
// CheckPresence) the miss is counted without scanning the set, leaving
// Stats and Digest exactly as the scan would.
func lookup(c *cache.SetAssoc, l cache.Line, present bool) cache.State {
	if !present {
		c.Miss()
		return cache.Invalid
	}
	return c.Lookup(l)
}

// tileBit reports whether tile's bit is set in a directory owner word.
func tileBit(owners uint64, tile int) bool { return owners&(1<<uint(tile)) != 0 }

// downgradeSiblingL1 moves any L1 copy on the tile except exceptCore's
// to Shared (pass -1 to downgrade every core's copy). SetState leaves an
// absent line absent, so each L1 is scanned once.
func (m *Machine) downgradeSiblingL1(tile, exceptCore int, l cache.Line) {
	for c := 0; c < knl.CoresPerTile; c++ {
		if core := tile*knl.CoresPerTile + c; core != exceptCore {
			m.cores[core].l1.SetState(l, cache.Shared)
		}
	}
}

// forwardCommit applies a cache-to-cache forward from tile fwd (holding
// the line in fwdSt) to tile, once the forwarder's L2 port has accepted
// the transaction: the source copies drop to Shared, a Modified source
// posts its write-back, and the data-return tail is drawn and returned —
// the owner's extra latency first, then the flight and delivery.
func (m *Machine) forwardCommit(l cache.Line, fwd, tile int, fwdSt cache.State) float64 {
	m.tiles[fwd].l2.SetState(l, cache.Shared)
	m.downgradeSiblingL1(fwd, -1, l)
	if fwdSt == cache.Modified {
		m.asyncWriteBack(l)
	}
	return m.jitter(m.ownerExtra(fwdSt)) + m.jitter(m.Router.TileToTile(fwd, tile)+m.P.DeliverNs)
}

// demoteOthers moves the forwardable copy of the line held by any tile
// outside keep to Shared, posting a Modified copy's write-back. A load
// commits its Exclusive or Forward install through it: stream accesses do
// not queue at the home CHA, so one may have installed a copy while the
// load was in flight, and MESIF allows no second E, M or F holder.
// Without such a race the tiles outside keep hold Shared copies at most,
// and this only reads their tags.
func (m *Machine) demoteOthers(l cache.Line, keep uint64) {
	for o := m.owners(l) &^ keep; o != 0; o &= o - 1 {
		t := bits.TrailingZeros64(o)
		if st := m.tiles[t].l2.Peek(l); st.CanForward() {
			m.tiles[t].l2.SetState(l, cache.Shared)
			m.downgradeSiblingL1(t, -1, l)
			if st == cache.Modified {
				m.asyncWriteBack(l)
			}
		}
	}
}

// ownerExtra is the forwarding tile's added latency for a line it holds
// in st.
func (m *Machine) ownerExtra(st cache.State) float64 {
	switch st {
	case cache.Modified:
		return m.P.OwnerExtraMNs
	case cache.Exclusive:
		return m.P.OwnerExtraENs
	default:
		return m.P.OwnerExtraSFNs
	}
}

// invalidateOthers drops the line from every tile except `exceptTile`
// (pass -1 to drop it everywhere). Pollers watching the line are woken by
// the caller's notify. The directory update is a single slot access: the
// dropped bits are cleared at once instead of one lookup-plus-write per
// owning tile.
func (m *Machine) invalidateOthers(exceptTile int, l cache.Line) {
	t, s, i := m.lineState(l)
	if s.owners == 0 || s.gen != t.bufGen[t.lineBuf[i]] {
		return
	}
	var keep uint64
	if exceptTile >= 0 {
		keep = s.owners & (1 << uint(exceptTile))
	}
	drop := s.owners &^ keep
	for o := drop; o != 0; o &= o - 1 {
		ti := bits.TrailingZeros64(o)
		m.tiles[ti].l2.Invalidate(l)
		m.invalidateTileL1s(ti, l)
	}
	if drop != 0 && keep == 0 {
		t.bufLive[t.lineBuf[i]]--
		t.dirLive--
	}
	s.owners = keep
}

func (m *Machine) invalidateTileL1s(tile int, l cache.Line) {
	for c := 0; c < knl.CoresPerTile; c++ {
		m.cores[tile*knl.CoresPerTile+c].l1.Invalidate(l)
	}
}
