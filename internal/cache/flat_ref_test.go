package cache

// flatSetAssoc is the single-slice tag array SetAssoc used before storage
// was split into blocks, kept as the reference the block-lazy array is
// checked against (TestSetAssocMatchesFlatReference). Its entries slice is
// allocated whole by the first Insert.
type flatSetAssoc struct {
	sets    int
	ways    int
	tick    uint64
	epoch   uint32
	entries []entry // sets*ways, row-major by set; nil until the first Insert

	hits, misses, evictions uint64
}

func newFlatSetAssoc(capacityBytes, ways int) *flatSetAssoc {
	return &flatSetAssoc{sets: capacityBytes / (64 * ways), ways: ways}
}

func (c *flatSetAssoc) setOf(l Line) int { return int(uint64(l) & uint64(c.sets-1)) }

func (c *flatSetAssoc) live(e *entry) bool {
	return e.state != Invalid && e.epoch == c.epoch
}

func (c *flatSetAssoc) Lookup(l Line) State {
	if c.entries == nil {
		c.misses++
		return Invalid
	}
	base := c.setOf(l) * c.ways
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+w]
		if c.live(e) && e.line == l {
			c.tick++
			e.lru = c.tick
			c.hits++
			return e.state
		}
	}
	c.misses++
	return Invalid
}

func (c *flatSetAssoc) Peek(l Line) State {
	if c.entries == nil {
		return Invalid
	}
	base := c.setOf(l) * c.ways
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+w]
		if c.live(e) && e.line == l {
			return e.state
		}
	}
	return Invalid
}

func (c *flatSetAssoc) Insert(l Line, s State) Victim {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	if c.entries == nil {
		c.entries = make([]entry, c.sets*c.ways)
	}
	base := c.setOf(l) * c.ways
	var free, lru *entry
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+w]
		if !c.live(e) {
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
	target := free
	out := Victim{State: Invalid}
	if target == nil {
		target = lru
		out = Victim{Line: lru.line, State: lru.state}
		c.evictions++
	}
	c.tick++
	*target = entry{line: l, state: s, epoch: c.epoch, lru: c.tick}
	return out
}

func (c *flatSetAssoc) SetState(l Line, s State) {
	if c.entries == nil {
		return
	}
	base := c.setOf(l) * c.ways
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+w]
		if c.live(e) && e.line == l {
			e.state = s
			return
		}
	}
}

func (c *flatSetAssoc) Invalidate(l Line) State {
	if c.entries == nil {
		return Invalid
	}
	base := c.setOf(l) * c.ways
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+w]
		if c.live(e) && e.line == l {
			s := e.state
			e.state = Invalid
			return s
		}
	}
	return Invalid
}

func (c *flatSetAssoc) Flush() { c.bumpEpoch() }

func (c *flatSetAssoc) Reset() {
	c.bumpEpoch()
	c.tick = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
}

func (c *flatSetAssoc) bumpEpoch() {
	c.epoch++
	if c.epoch == 0 {
		clear(c.entries)
	}
}

func (c *flatSetAssoc) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

func (c *flatSetAssoc) Occupancy() int {
	n := 0
	for i := range c.entries {
		if c.live(&c.entries[i]) {
			n++
		}
	}
	return n
}

func (c *flatSetAssoc) Digest() uint64 {
	d := newDigester()
	d.put(c.tick)
	d.put(c.hits)
	d.put(c.misses)
	d.put(c.evictions)
	for i := range c.entries {
		e := &c.entries[i]
		if !c.live(e) {
			continue
		}
		d.put(uint64(i))
		d.put(uint64(e.line))
		d.put(uint64(e.state))
		d.put(e.lru)
	}
	return d.sum()
}
