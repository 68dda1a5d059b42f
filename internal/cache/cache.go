// Package cache models the tag arrays of the KNL cache hierarchy: the
// per-core 32 KB 8-way L1D, the per-tile 1 MB 16-way shared L2, and the
// direct-mapped MCDRAM memory-side cache used in cache/hybrid memory mode.
//
// Only tags and MESIF coherence states are tracked — the simulator never
// stores data in modeled caches (benchmark payloads that need real values
// live in the machine's word store).
package cache

import "fmt"

// Line is a cache-line address: the byte address shifted right by 6.
type Line uint64

// LineOf returns the line containing byte address addr.
func LineOf(addr uint64) Line { return Line(addr >> 6) }

// Addr returns the first byte address of the line.
func (l Line) Addr() uint64 { return uint64(l) << 6 }

// State is a MESIF coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	Forward
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Forward:
		return "F"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Readable reports whether a cache holding the line in this state can
// service a read without a coherence transaction.
func (s State) Readable() bool { return s != Invalid }

// Writable reports whether a store can hit without a coherence transaction.
func (s State) Writable() bool { return s == Modified || s == Exclusive }

// CanForward reports whether this copy may source a cache-to-cache transfer.
func (s State) CanForward() bool {
	return s == Modified || s == Exclusive || s == Forward
}

// entry is one way of one set. An entry is live only while its epoch
// matches the array's: Reset and Flush advance the array epoch instead of
// clearing the storage, so emptying a tag array is O(1) no matter how much
// of it was touched (a fully touched L2 array holds 16384 entries, 384 KB).
// Epoch 0 means Invalid: Invalidate and SetState(l, Invalid) write it, a
// zeroed block holds it, and an array's epoch starts at 1 and never takes
// it, so liveness is one compare and a live entry never holds Invalid.
type entry struct {
	line  Line
	state State
	epoch uint32 // live iff equal to SetAssoc.epoch; 0 for an invalid way
	lru   uint64 // last-touch tick
}

// blockSets is the number of sets in one unit of tag storage. An L1 (64
// sets) is a single block; an L2 (1024 sets) is 16 blocks of 24 KB.
const (
	blockShift = 6
	blockSets  = 1 << blockShift
)

// SetAssoc is a set-associative tag array with LRU replacement.
//
// Storage is a table of fixed blocks of blockSets consecutive sets, each
// allocated by the first Insert into it, not by NewSetAssoc: a machine has
// 38 L2 and 76 L1 arrays (13.4 MB of entries), and the microbenchmarks and
// collectives behind the capability model touch a few lines on a few
// tiles. The table itself also waits for the first Insert, so building an
// array allocates nothing beyond its header. A never-touched block reads as
// empty. Reset and Flush keep the blocks already allocated, so a pooled
// machine reuses the storage its earlier runs touched.
type SetAssoc struct {
	name   string
	sets   int
	ways   int
	tick   uint64
	epoch  uint32    // current epoch; starts at 1 and skips 0 (see entry)
	blocks [][]entry // blocks[b] holds sets [b*blockSets, (b+1)*blockSets), row-major by set; the table and each block stay nil until their first Insert

	hits, misses, evictions uint64
}

// NewSetAssoc builds a tag array for the given capacity in bytes and
// associativity; sets = capacity / (64 * ways). Capacity must be a multiple
// of 64*ways and sets must be a power of two.
func NewSetAssoc(name string, capacityBytes, ways int) *SetAssoc {
	if capacityBytes <= 0 || ways <= 0 || capacityBytes%(64*ways) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d bytes / %d ways", capacityBytes, ways))
	}
	sets := capacityBytes / (64 * ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d not a power of two", sets))
	}
	return &SetAssoc{name: name, sets: sets, ways: ways, epoch: 1}
}

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// CapacityBytes returns the modeled capacity.
func (c *SetAssoc) CapacityBytes() int { return c.sets * c.ways * 64 }

func (c *SetAssoc) setOf(l Line) int { return int(uint64(l) & uint64(c.sets-1)) }

// row returns the ways of the set holding l, or nil while that set's block
// has never been touched (an empty row reads as a set of invalid ways).
func (c *SetAssoc) row(l Line) []entry {
	set := c.setOf(l)
	bi := set >> blockShift
	if bi >= len(c.blocks) || c.blocks[bi] == nil {
		return nil
	}
	b := c.blocks[bi]
	base := (set & (blockSets - 1)) * c.ways
	return b[base : base+c.ways]
}

// live reports whether the entry holds a line: it belongs to the current
// epoch, which an invalidated way (epoch 0) never does. Every read path
// must test the epoch rather than the state, or lines from before a Reset
// would resurrect. Lookup, Peek, SetState and Invalidate compare e.line
// first and hold the epoch in a local, so a way that does not match costs
// one compare.
func (c *SetAssoc) live(e *entry) bool { return e.epoch == c.epoch }

// Lookup returns the state of the line (Invalid if absent) and updates LRU
// and hit/miss counters on readable hits.
func (c *SetAssoc) Lookup(l Line) State {
	row, ep := c.row(l), c.epoch
	for w := range row {
		if e := &row[w]; e.line == l && e.epoch == ep {
			c.tick++
			e.lru = c.tick
			c.hits++
			return e.state
		}
	}
	c.misses++
	return Invalid
}

// Miss counts a lookup miss without scanning the set: the caller already
// knows the line is absent (the directory rules it out), so Stats and
// Digest end up exactly as after a Lookup of the absent line.
func (c *SetAssoc) Miss() { c.misses++ }

// Peek returns the state of the line without touching LRU or counters.
func (c *SetAssoc) Peek(l Line) State {
	row, ep := c.row(l), c.epoch
	for w := range row {
		if e := &row[w]; e.line == l && e.epoch == ep {
			return e.state
		}
	}
	return Invalid
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Line  Line
	State State
}

// Insert places the line with the given state, evicting the LRU way if the
// set is full. It returns the victim (State Invalid if none was displaced).
// Inserting a line that is already present updates its state in place.
func (c *SetAssoc) Insert(l Line, s State) Victim {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	row := c.rowAlloc(l)
	// Every way is classified free or live, so the epoch is tested first
	// here: testing the line first would add a compare to each free way.
	ep := c.epoch
	var free, lru *entry
	for w := range row {
		e := &row[w]
		if e.epoch != ep {
			if free == nil {
				free = e
			}
			continue
		}
		if e.line == l {
			e.state = s
			c.tick++
			e.lru = c.tick
			return Victim{State: Invalid}
		}
		if lru == nil || e.lru < lru.lru {
			lru = e
		}
	}
	if free == nil {
		free = lru
	}
	return c.fill(free, l, s)
}

// InsertAbsent is Insert for a line the caller knows is not in the array
// (Machine.Prime installs lines it has just flushed from every cache).
// With no copy to look for, it fills the first free way without reading
// the rest of the set; only a full set is scanned to the end for its LRU
// way. The way, tick and victim are those Insert would pick.
func (c *SetAssoc) InsertAbsent(l Line, s State) Victim {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	row := c.rowAlloc(l)
	ep := c.epoch
	var lru *entry
	for w := range row {
		e := &row[w]
		if e.epoch != ep {
			return c.fill(e, l, s)
		}
		if lru == nil || e.lru < lru.lru {
			lru = e
		}
	}
	return c.fill(lru, l, s)
}

// rowAlloc is row for an insert: it gives the set's block its storage on
// the first touch.
func (c *SetAssoc) rowAlloc(l Line) []entry {
	if row := c.row(l); row != nil {
		return row
	}
	c.allocate(c.setOf(l) >> blockShift)
	return c.row(l)
}

// fill writes the line into way e, a free way or the set's LRU one, and
// returns the live line it displaced, if any.
func (c *SetAssoc) fill(e *entry, l Line, s State) Victim {
	out := Victim{State: Invalid}
	if e.epoch == c.epoch {
		out = Victim{Line: e.line, State: e.state}
		c.evictions++
	}
	c.tick++
	*e = entry{line: l, state: s, epoch: c.epoch, lru: c.tick}
	return out
}

// SetState changes the state of a present line; it is a no-op for absent
// lines unless the new state is Invalid, in which case absence is fine.
// Setting Invalid removes the line.
func (c *SetAssoc) SetState(l Line, s State) {
	row, ep := c.row(l), c.epoch
	for w := range row {
		if e := &row[w]; e.line == l && e.epoch == ep {
			if s == Invalid {
				e.epoch = 0
			}
			e.state = s
			return
		}
	}
}

// Invalidate removes the line and returns its previous state.
func (c *SetAssoc) Invalidate(l Line) State {
	row, ep := c.row(l), c.epoch
	for w := range row {
		if e := &row[w]; e.line == l && e.epoch == ep {
			e.epoch = 0
			return e.state
		}
	}
	return Invalid
}

// allocate gives never-touched block b its storage, and the array its
// block table on the first call. Zeroed entries hold epoch 0, so none is
// live whatever the current epoch.
func (c *SetAssoc) allocate(b int) {
	if c.blocks == nil {
		//lint:ignore hotalloc runs once per array per machine lifetime: Reset and Flush keep the table
		c.blocks = make([][]entry, (c.sets+blockSets-1)/blockSets)
	}
	//lint:ignore hotalloc runs once per block per machine lifetime: Reset and Flush keep the storage, so pooled machines never re-enter it
	c.blocks[b] = make([]entry, min(c.sets, blockSets)*c.ways)
}

// Flush removes every line (states are discarded) by advancing the epoch;
// the stale entries are reclaimed lazily as Insert reuses their ways.
func (c *SetAssoc) Flush() {
	c.bumpEpoch()
}

// Reset empties the tag array and zeroes the LRU clock and counters,
// returning it to the just-constructed state (machine pooling). Like
// Flush it is O(1): pooled machines with large L2 arrays reset in
// constant time instead of re-clearing megabytes of tags.
func (c *SetAssoc) Reset() {
	c.bumpEpoch()
	c.tick = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// bumpEpoch invalidates every entry in O(1). On the (practically
// unreachable) uint32 wraparound the blocks are cleared for real and the
// epoch restarts at 1, as DirectMapped's does, so an entry surviving 2^32
// epochs can never appear live again and 0 stays the invalid epoch.
func (c *SetAssoc) bumpEpoch() {
	c.epoch++
	if c.epoch == 0 {
		for _, b := range c.blocks {
			clear(b)
		}
		c.epoch = 1
	}
}

// Stats returns cumulative hit/miss/eviction counters.
func (c *SetAssoc) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// Each calls fn for every valid line in set-major order (consistency
// checks; not for hot paths).
func (c *SetAssoc) Each(fn func(l Line, s State)) {
	for _, b := range c.blocks {
		for i := range b {
			if e := &b[i]; c.live(e) {
				fn(e.line, e.state)
			}
		}
	}
}

// Occupancy returns the number of valid lines currently cached.
func (c *SetAssoc) Occupancy() int {
	n := 0
	c.Each(func(Line, State) { n++ })
	return n
}
