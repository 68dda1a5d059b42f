package cache

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestStateProperties(t *testing.T) {
	cases := []struct {
		s                         State
		str                       string
		readable, writable, fwdOK bool
	}{
		{Invalid, "I", false, false, false},
		{Shared, "S", true, false, false},
		{Exclusive, "E", true, true, true},
		{Modified, "M", true, true, true},
		{Forward, "F", true, false, true},
	}
	for _, c := range cases {
		if c.s.String() != c.str {
			t.Errorf("%v String = %q, want %q", c.s, c.s.String(), c.str)
		}
		if c.s.Readable() != c.readable {
			t.Errorf("%v Readable = %v", c.s, c.s.Readable())
		}
		if c.s.Writable() != c.writable {
			t.Errorf("%v Writable = %v", c.s, c.s.Writable())
		}
		if c.s.CanForward() != c.fwdOK {
			t.Errorf("%v CanForward = %v", c.s, c.s.CanForward())
		}
	}
}

func TestLineRoundTrip(t *testing.T) {
	addr := uint64(0x12345)
	l := LineOf(addr)
	if l.Addr() != addr&^63 {
		t.Errorf("Addr = %#x, want %#x", l.Addr(), addr&^63)
	}
	if LineOf(l.Addr()) != l {
		t.Error("LineOf(Addr) not idempotent")
	}
}

func TestSetAssocGeometry(t *testing.T) {
	c := NewSetAssoc("L1", 32<<10, 8)
	if c.Sets() != 64 || c.ways != 8 {
		t.Errorf("L1 geometry sets=%d ways=%d", c.Sets(), c.ways)
	}
	c2 := NewSetAssoc("L2", 1<<20, 16)
	if c2.Sets() != 1024 {
		t.Errorf("L2 sets = %d, want 1024", c2.Sets())
	}
}

func TestSetAssocBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ cap, ways int }{{0, 8}, {100, 8}, {64 * 3 * 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSetAssoc(%d,%d) did not panic", tc.cap, tc.ways)
				}
			}()
			NewSetAssoc("bad", tc.cap, tc.ways)
		}()
	}
}

func TestSetAssocInsertLookup(t *testing.T) {
	c := NewSetAssoc("t", 64*8*4, 4) // 8 sets, 4 ways
	if got := c.Lookup(5); got != Invalid {
		t.Errorf("lookup of absent line = %v", got)
	}
	c.Insert(5, Exclusive)
	if got := c.Lookup(5); got != Exclusive {
		t.Errorf("lookup after insert = %v, want E", got)
	}
	// Re-insert updates state in place.
	if v := c.Insert(5, Modified); v.State != Invalid {
		t.Errorf("re-insert evicted %v", v)
	}
	if got := c.Peek(5); got != Modified {
		t.Errorf("state after re-insert = %v, want M", got)
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	c := NewSetAssoc("t", 64*2*1, 2) // 1 set, 2 ways
	c.Insert(1, Exclusive)
	c.Insert(2, Shared)
	c.Lookup(1) // make line 2 the LRU
	v := c.Insert(3, Exclusive)
	if v.State == Invalid || v.Line != 2 {
		t.Errorf("victim = %+v, want line 2", v)
	}
	if c.Peek(1) == Invalid || c.Peek(3) == Invalid {
		t.Error("lines 1/3 should be resident")
	}
	if c.Peek(2) != Invalid {
		t.Error("line 2 should have been evicted")
	}
}

func TestSetAssocPrefersFreeWay(t *testing.T) {
	c := NewSetAssoc("t", 64*2*1, 2)
	c.Insert(1, Exclusive)
	if v := c.Insert(2, Exclusive); v.State != Invalid {
		t.Errorf("insert into free way evicted %+v", v)
	}
}

func TestSetAssocConflictOnlySameSet(t *testing.T) {
	c := NewSetAssoc("t", 64*4*1, 1) // 4 sets, direct-mapped
	c.Insert(0, Exclusive)           // set 0
	c.Insert(1, Exclusive)           // set 1
	if c.Peek(0) == Invalid || c.Peek(1) == Invalid {
		t.Error("different sets must not conflict")
	}
	v := c.Insert(4, Exclusive) // set 0 again
	if v.State == Invalid || v.Line != 0 {
		t.Errorf("victim = %+v, want line 0", v)
	}
}

func TestSetAssocInvalidateAndSetState(t *testing.T) {
	c := NewSetAssoc("t", 64*8*2, 2)
	c.Insert(7, Modified)
	c.SetState(7, Shared)
	if got := c.Peek(7); got != Shared {
		t.Errorf("after SetState = %v, want S", got)
	}
	if got := c.Invalidate(7); got != Shared {
		t.Errorf("Invalidate returned %v, want S", got)
	}
	if got := c.Peek(7); got != Invalid {
		t.Errorf("after Invalidate = %v, want I", got)
	}
	if got := c.Invalidate(7); got != Invalid {
		t.Errorf("double Invalidate returned %v", got)
	}
	c.SetState(42, Shared) // absent line: no-op, must not panic
	if c.Peek(42) != Invalid {
		t.Error("SetState materialized an absent line")
	}
}

func TestSetAssocStatsAndFlush(t *testing.T) {
	c := NewSetAssoc("t", 64*2*1, 2)
	c.Lookup(1) // miss
	c.Insert(1, Exclusive)
	c.Lookup(1) // hit
	c.Insert(2, Exclusive)
	c.Insert(3, Exclusive) // evicts
	hits, misses, ev := c.Stats()
	if hits != 1 || misses != 1 || ev != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/1/1", hits, misses, ev)
	}
	if c.Occupancy() != 2 {
		t.Errorf("occupancy = %d, want 2", c.Occupancy())
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Error("flush left lines resident")
	}
}

// allocatedBlocks counts the blocks that hold storage.
func (c *SetAssoc) allocatedBlocks() int {
	n := 0
	for _, b := range c.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// A never-touched block has no storage yet and must read exactly like an
// empty one: Lookup counts its miss, the other read and update paths are
// no-ops, and none of them allocates. The first Insert allocates only the
// block holding the line's set.
func TestSetAssocUntouchedReadsEmpty(t *testing.T) {
	c := NewSetAssoc("t", 1<<20, 16)
	if got := c.Lookup(5); got != Invalid {
		t.Errorf("Lookup on untouched array = %v, want I", got)
	}
	if hits, misses, ev := c.Stats(); hits != 0 || misses != 1 || ev != 0 {
		t.Errorf("stats = %d/%d/%d, want 0/1/0", hits, misses, ev)
	}
	reads := func(l Line) {
		c.Lookup(l)
		if c.Peek(l) != Invalid || c.Invalidate(l) != Invalid {
			t.Errorf("untouched block reported line %d resident", l)
		}
		c.SetState(l, Shared)
		c.SetState(l, Invalid)
	}
	if allocs := testing.AllocsPerRun(10, func() { reads(5) }); allocs != 0 {
		t.Errorf("read paths allocated %v times per run", allocs)
	}
	if n := c.allocatedBlocks(); n != 0 {
		t.Errorf("a read path allocated %d blocks", n)
	}
	if c.Occupancy() != 0 {
		t.Errorf("occupancy = %d, want 0", c.Occupancy())
	}
	c.Flush()
	c.Reset()
	if n := c.allocatedBlocks(); n != 0 {
		t.Errorf("Flush/Reset allocated %d blocks", n)
	}
	c.Insert(5, Exclusive)
	if c.Peek(5) != Exclusive {
		t.Error("first Insert did not install the line")
	}
	if n := c.allocatedBlocks(); n != 1 || c.blocks[0] == nil || len(c.blocks[0]) != blockSets*16 {
		t.Errorf("first Insert allocated %d blocks, want block 0 alone", n)
	}
	// Set 5+blockSets lives in the next block, still untouched.
	if allocs := testing.AllocsPerRun(10, func() { reads(5 + blockSets) }); allocs != 0 {
		t.Errorf("read paths on an untouched block allocated %v times per run", allocs)
	}
	if n := c.allocatedBlocks(); n != 1 {
		t.Errorf("reads of an untouched block allocated it (%d blocks)", n)
	}
}

// mallocs counts the heap allocations f makes in one call.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// One Insert into an untouched L2 block allocates exactly that block (the
// array's first Insert also allocates the block table). Construction
// allocates only the array header.
func TestSetAssocInsertAllocatesOneBlock(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, func() { NewSetAssoc("t", 1<<20, 16) }); allocs != 1 {
		t.Errorf("NewSetAssoc made %v allocations, want 1", allocs)
	}
	c := NewSetAssoc("t", 1<<20, 16)
	if n := mallocs(func() { c.Insert(700, Modified) }); n != 2 {
		t.Errorf("first Insert made %d allocations, want 2 (table and block)", n)
	}
	if b := 700 >> blockShift; c.allocatedBlocks() != 1 || c.blocks[b] == nil || len(c.blocks[b]) != blockSets*16 {
		t.Errorf("Insert into set 700 allocated %d blocks, want block %d alone", c.allocatedBlocks(), b)
	}
	if n := mallocs(func() { c.Insert(5, Modified) }); n != 1 {
		t.Errorf("Insert into untouched block 0 made %d allocations, want 1", n)
	}
	if c.allocatedBlocks() != 2 {
		t.Errorf("after Inserts into sets 700 and 5: %d blocks allocated, want 2", c.allocatedBlocks())
	}
	if allocs := testing.AllocsPerRun(10, func() { c.Insert(5+1024, Shared) }); allocs != 0 {
		t.Errorf("Insert into an allocated block allocated %v times per run", allocs)
	}
}

// Geometries the machine builds: one block for an L1, sixteen for an L2.
func TestSetAssocBlockGeometry(t *testing.T) {
	for _, g := range []struct{ cap, ways, blocks int }{
		{32 << 10, 8, 1}, {1 << 20, 16, 16}, {64 * 8 * 4, 4, 1},
	} {
		c := NewSetAssoc("t", g.cap, g.ways)
		c.Insert(0, Exclusive)
		if got := len(c.blocks); got != g.blocks {
			t.Errorf("%d bytes / %d ways: %d blocks, want %d", g.cap, g.ways, got, g.blocks)
		}
	}
}

// A fresh array and one that was used and then Reset are the same state,
// so their digests must agree (machine pooling relies on it).
func TestSetAssocDigestFreshEqualsReset(t *testing.T) {
	fresh := NewSetAssoc("t", 64*4*2, 2)
	used := NewSetAssoc("t", 64*4*2, 2)
	used.Insert(3, Modified)
	used.Lookup(3)
	used.Lookup(4)
	used.Reset()
	if fresh.Digest() != used.Digest() {
		t.Errorf("digest after Insert+Reset %#x != fresh %#x", used.Digest(), fresh.Digest())
	}
}

// Reset keeps the storage a first Insert allocated, so a pooled array
// never allocates again.
func TestSetAssocResetKeepsStorage(t *testing.T) {
	c := NewSetAssoc("t", 1<<20, 16)
	c.Insert(1, Exclusive)
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset()
		c.Insert(9, Modified)
	})
	if allocs != 0 {
		t.Errorf("Reset+Insert on touched storage allocated %v times per run", allocs)
	}
	if c.Occupancy() != 1 || c.Peek(1) != Invalid {
		t.Error("Reset left stale lines resident")
	}
}

// Property: occupancy never exceeds capacity and inserted line is always
// resident immediately afterwards.
func TestSetAssocCapacityProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := NewSetAssoc("t", 64*4*2, 2) // 8 lines capacity
		for _, raw := range lines {
			l := Line(raw)
			c.Insert(l, Exclusive)
			if c.Peek(l) == Invalid {
				return false
			}
			if c.Occupancy() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirectMappedBasics(t *testing.T) {
	d := NewDirectMapped("mcdram", 64*8)
	if d.Sets() != 8 {
		t.Fatalf("sets = %d, want 8", d.Sets())
	}
	if d.Probe(3) {
		t.Error("probe of empty cache hit")
	}
	d.Fill(3)
	if !d.Probe(3) {
		t.Error("probe after fill missed")
	}
	// Conflicting line (3 + 8 maps to same set).
	victim, dirty, ok := d.Fill(11)
	if !ok || victim != 3 || dirty {
		t.Errorf("fill conflict = (%v,%v,%v), want (3,false,true)", victim, dirty, ok)
	}
	if d.Probe(3) {
		t.Error("evicted line still present")
	}
}

func TestDirectMappedDirty(t *testing.T) {
	d := NewDirectMapped("mcdram", 64*4)
	d.Fill(1)
	d.MarkDirty(1)
	if !d.IsDirty(1) {
		t.Error("line not dirty after MarkDirty")
	}
	victim, dirty, ok := d.Fill(5) // conflicts with 1
	if !ok || victim != 1 || !dirty {
		t.Errorf("dirty eviction = (%v,%v,%v), want (1,true,true)", victim, dirty, ok)
	}
	if d.IsDirty(5) {
		t.Error("fresh fill must be clean")
	}
	d.MarkDirty(99) // absent: no-op
	if d.IsDirty(99) {
		t.Error("MarkDirty materialized absent line")
	}
}

// The probe counters behind memmode.Policy.HitRate: a fill is not a
// probe, a present line is a hit and an absent one a miss.
func TestDirectMappedHitRate(t *testing.T) {
	d := NewDirectMapped("mcdram", 64*16)
	if h, m, _ := d.Stats(); h != 0 || m != 0 {
		t.Errorf("untouched cache counted %d hits, %d misses", h, m)
	}
	d.Fill(1)
	d.Probe(1)
	d.Probe(2)
	if h, m, _ := d.Stats(); h != 1 || m != 1 {
		t.Errorf("counted %d hits, %d misses, want 1 and 1", h, m)
	}
}

func TestDirectMappedRoundsToPow2(t *testing.T) {
	d := NewDirectMapped("m", 64*10) // 10 -> rounds down to 8 sets
	if d.Sets() != 8 {
		t.Errorf("sets = %d, want 8", d.Sets())
	}
	if d.CapacityBytes() != 64*8 {
		t.Errorf("capacity = %d, want %d", d.CapacityBytes(), 64*8)
	}
}

func TestDirectMappedRefillSameLineKeepsClean(t *testing.T) {
	d := NewDirectMapped("m", 64*4)
	d.Fill(2)
	d.MarkDirty(2)
	_, _, ok := d.Fill(2) // refill of same line: no eviction, resets dirty
	if ok {
		t.Error("refill of same line reported eviction")
	}
	if d.IsDirty(2) {
		t.Error("refill should reset dirty bit")
	}
}
