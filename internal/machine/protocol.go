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

// downgradeSiblingL1 moves any sibling-core L1 copy to Shared.
func (m *Machine) downgradeSiblingL1(tile, exceptCore int, l cache.Line) {
	for c := 0; c < knl.CoresPerTile; c++ {
		core := tile*knl.CoresPerTile + c
		if core == exceptCore {
			continue
		}
		l1 := m.cores[core].l1
		if l1.Peek(l) != cache.Invalid {
			l1.SetState(l, cache.Shared)
		}
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
