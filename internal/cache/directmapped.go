package cache

import "fmt"

// DirectMapped models the MCDRAM memory-side cache of KNL's cache and
// hybrid memory modes: direct-mapped on physical line addresses, with a
// dirty bit per entry (write-backs from L2 go straight to MCDRAM, so dirty
// lines must be flushed to DDR on eviction).
// An entry is present only while its epoch matches the array's, mirroring
// SetAssoc: Reset advances the epoch instead of clearing the (potentially
// hundreds of megabytes of) tag state of a modeled side cache.
type DirectMapped struct {
	name    string
	sets    uint64
	cur     uint32 // current epoch; starts at 1 so zeroed slices read absent
	tags    []Line
	epochs  []uint32
	dirty   []bool
	hits    uint64
	misses  uint64
	evicted uint64
}

// NewDirectMapped builds a direct-mapped tag array for capacityBytes
// (must be a positive multiple of 64; the set count is rounded down to a
// power of two).
func NewDirectMapped(name string, capacityBytes int64) *DirectMapped {
	if capacityBytes < 64 {
		panic(fmt.Sprintf("cache: direct-mapped capacity %d too small", capacityBytes))
	}
	sets := uint64(capacityBytes / 64)
	// Round down to a power of two for mask indexing.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return &DirectMapped{
		name:   name,
		sets:   sets,
		cur:    1,
		tags:   make([]Line, sets),
		epochs: make([]uint32, sets),
		dirty:  make([]bool, sets),
	}
}

// Sets returns the number of entries.
func (d *DirectMapped) Sets() uint64 { return d.sets }

// CapacityBytes returns the modeled capacity.
func (d *DirectMapped) CapacityBytes() int64 { return int64(d.sets) * 64 }

func (d *DirectMapped) idx(l Line) uint64 { return uint64(l) & (d.sets - 1) }

// live reports whether set i holds a current-epoch entry.
func (d *DirectMapped) live(i uint64) bool { return d.epochs[i] == d.cur }

// Probe reports whether the line is present, updating hit/miss counters.
func (d *DirectMapped) Probe(l Line) bool {
	i := d.idx(l)
	if d.live(i) && d.tags[i] == l {
		d.hits++
		return true
	}
	d.misses++
	return false
}

// Peek reports presence without touching the hit/miss counters.
func (d *DirectMapped) Peek(l Line) bool {
	i := d.idx(l)
	return d.live(i) && d.tags[i] == l
}

// Fill installs the line, returning the displaced line and whether it was
// dirty (needs a DDR write-back). ok is false when nothing was displaced.
func (d *DirectMapped) Fill(l Line) (victim Line, dirty, ok bool) {
	i := d.idx(l)
	if d.live(i) && d.tags[i] != l {
		victim, dirty, ok = d.tags[i], d.dirty[i], true
	}
	d.tags[i] = l
	d.epochs[i] = d.cur
	d.dirty[i] = false
	if ok {
		d.evicted++
	}
	return victim, dirty, ok
}

// MarkDirty records that the cached copy of l differs from DDR. It is a
// no-op if the line is not present.
func (d *DirectMapped) MarkDirty(l Line) {
	i := d.idx(l)
	if d.live(i) && d.tags[i] == l {
		d.dirty[i] = true
	}
}

// IsDirty reports whether the line is present and dirty.
func (d *DirectMapped) IsDirty(l Line) bool {
	i := d.idx(l)
	return d.live(i) && d.tags[i] == l && d.dirty[i]
}

// Reset empties the tag array and zeroes the counters, returning it to
// the just-constructed state (machine pooling). O(1) via the epoch: a
// modeled multi-GB side cache resets in constant time. On the uint32
// wraparound the slices are cleared for real so no ancient entry can
// ever read as live again.
func (d *DirectMapped) Reset() {
	d.cur++
	if d.cur == 0 {
		clear(d.tags)
		clear(d.epochs)
		clear(d.dirty)
		d.cur = 1
	}
	d.hits, d.misses, d.evicted = 0, 0, 0
}

// Stats returns cumulative counters.
func (d *DirectMapped) Stats() (hits, misses, evictions uint64) {
	return d.hits, d.misses, d.evicted
}
