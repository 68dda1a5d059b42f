package cache

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
)

// digester accumulates 64-bit words into an FNV-1a hash. The tag arrays
// hash their own state (rather than exposing it) so the machine's
// StateDigest can fold whole cache hierarchies without copying them.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester {
	return &digester{h: fnv.New64a()}
}

func (d *digester) put(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	_, _ = d.h.Write(d.buf[:]) // fnv.Write never fails
}

func (d *digester) sum() uint64 { return d.h.Sum64() }

// Digest returns an FNV-1a hash of the complete tag-array state: every
// valid entry's position, line, MESIF state and LRU tick, plus the
// cumulative counters. Two identical operation histories yield identical
// digests; see machine.StateDigest.
func (c *SetAssoc) Digest() uint64 {
	d := newDigester()
	d.put(c.tick)
	d.put(c.hits)
	d.put(c.misses)
	d.put(c.evictions)
	// Blocks hold consecutive sets, so block b's entry i has global way
	// index b*len(block)+i (set*ways+way), the same whether or not the
	// blocks before it were ever allocated.
	per := min(c.sets, blockSets) * c.ways
	for b, blk := range c.blocks {
		for i := range blk {
			e := &blk[i]
			if !c.live(e) {
				continue // invalidated and stale-epoch tags are not state
			}
			d.put(uint64(b*per + i))
			d.put(uint64(e.line))
			d.put(uint64(e.state))
			d.put(e.lru)
		}
	}
	return d.sum()
}

// Digest returns an FNV-1a hash of the direct-mapped array state: every
// valid entry's index, tag and dirty bit, plus the cumulative counters.
func (d *DirectMapped) Digest() uint64 {
	dg := newDigester()
	dg.put(d.hits)
	dg.put(d.misses)
	dg.put(d.evicted)
	for i := uint64(0); i < d.sets; i++ {
		if !d.live(i) {
			continue
		}
		dirty := uint64(0)
		if d.dirty[i] {
			dirty = 1
		}
		dg.put(i)
		dg.put(uint64(d.tags[i]))
		dg.put(dirty)
	}
	return dg.sum()
}
