package machine

import (
	"fmt"
	"math/bits"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

// CheckPresence verifies that the directory is authoritative for
// presence: a tile's bit in a line's owner word is set exactly when that
// tile's L2 holds the line, and every line in a core's L1 is also in its
// tile's L2 (L1 ⊆ L2 = directory). The load, store and stream walks skip
// the requester's L1 and L2 scans when its tile bit is clear, so a
// violation would change what they simulate. It also recounts the line
// tables' derived counts — the live directory entries in total and per
// buffer, the stored words and the watched lines — from the slots:
// flushEpoch stops walking once a buffer's live count is exhausted, so an
// undercount would silently leave live tags behind. It walks every tag
// array and both line tables without changing any state, and returns the
// first violation found.
func (m *Machine) CheckPresence() error {
	for tile, ts := range m.tiles {
		var err error
		ts.l2.Each(func(l cache.Line, st cache.State) {
			if err == nil && !tileBit(m.owners(l), tile) {
				err = fmt.Errorf("machine: line %#x is %v in tile %d's L2 but its directory bit is clear", uint64(l), st, tile)
			}
		})
		if err != nil {
			return err
		}
	}
	for core, cs := range m.cores {
		tile := core / knl.CoresPerTile
		var err error
		cs.l1.Each(func(l cache.Line, st cache.State) {
			if err == nil && m.tiles[tile].l2.Peek(l) == cache.Invalid {
				err = fmt.Errorf("machine: line %#x is %v in core %d's L1 but absent from tile %d's L2", uint64(l), st, core, tile)
			}
		})
		if err != nil {
			return err
		}
	}
	for k := range m.lines {
		if err := m.checkLineTable(&m.lines[k]); err != nil {
			return err
		}
	}
	return nil
}

// checkLineTable checks one table's live owner bits against the L2 tag
// arrays and recounts its derived counts from the slots.
func (m *Machine) checkLineTable(t *lineTable) error {
	bufLive := make([]int32, len(t.bufLive))
	var dirLive, words, watched int
	for i := range t.slots {
		s := &t.slots[i]
		if s.flags != 0 && i >= len(t.ext) {
			return fmt.Errorf("machine: %v slot %d has flags %#x beyond the side table (len %d)", t.kind, i, s.flags, len(t.ext))
		}
		if s.flags&slotWord != 0 {
			words++
		}
		if s.flags&slotWatched != 0 {
			watched++
		}
		if s.owners == 0 || s.gen != t.bufGen[t.lineBuf[i]] {
			continue
		}
		bufLive[t.lineBuf[i]]++
		dirLive++
		l := t.base + cache.Line(i)
		for o := s.owners; o != 0; o &= o - 1 {
			tile := bits.TrailingZeros64(o)
			if tile >= len(m.tiles) || m.tiles[tile].l2.Peek(l) == cache.Invalid {
				return fmt.Errorf("machine: line %#x has tile %d's directory bit set but is absent from its L2", uint64(l), tile)
			}
		}
	}
	for id, n := range bufLive {
		if t.bufLive[id] != n {
			return fmt.Errorf("machine: %v buffer %d live count %d, %d live slots", t.kind, id, t.bufLive[id], n)
		}
	}
	switch {
	case t.dirLive != dirLive:
		return fmt.Errorf("machine: %v live directory count %d, %d live slots", t.kind, t.dirLive, dirLive)
	case t.words != words:
		return fmt.Errorf("machine: %v word count %d, %d slots hold a word", t.kind, t.words, words)
	case t.watched != watched:
		return fmt.Errorf("machine: %v watched count %d, %d slots are watched", t.kind, t.watched, watched)
	}
	return nil
}
