// Package memmode implements the three KNL memory modes (paper Section
// II-C): the flat/cache/hybrid role of MCDRAM, the per-EDC direct-mapped
// memory-side cache used in cache and hybrid modes, and the address-space
// allocator that hands out line-aligned buffers with kind and NUMA affinity.
package memmode

import (
	"fmt"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/sim"
)

// DDRBase and MCDRAMBase separate the two technologies in the simulated
// physical address space (flat mode maps MCDRAM above DDR, as on hardware).
const (
	DDRBase    uint64 = 0
	MCDRAMBase uint64 = 1 << 40
)

// KindOfAddr returns which technology backs a byte address.
func KindOfAddr(addr uint64) knl.MemKind {
	if addr >= MCDRAMBase {
		return knl.MCDRAM
	}
	return knl.DDR
}

// Policy models the memory-side MCDRAM cache for one machine.
// In flat mode the policy is pass-through (Enabled reports false).
type Policy struct {
	cfg    knl.Config
	slices []*cache.DirectMapped // one per EDC; nil when disabled
}

// NewPolicy builds the mode policy for cfg. In cache and hybrid modes the
// configured MCDRAM cache capacity is split evenly over the eight EDCs.
func NewPolicy(cfg knl.Config) *Policy {
	p := &Policy{cfg: cfg}
	total := cfg.MCDRAMCacheBytes()
	if total == 0 {
		return p
	}
	per := total / knl.NumEDC
	if per < 64 {
		panic(fmt.Sprintf("memmode: per-EDC cache slice %d B too small", per))
	}
	p.slices = make([]*cache.DirectMapped, knl.NumEDC)
	for e := range p.slices {
		p.slices[e] = cache.NewDirectMapped(sliceNames[e], per)
	}
	return p
}

// sliceNames interns the per-EDC slice names once for all machines.
var sliceNames = sim.NameTable("mcdram-cache", knl.NumEDC)

// Reset empties the side-cache slices in place (machine pooling); a
// pass-through policy is a no-op.
func (p *Policy) Reset() {
	for _, s := range p.slices {
		s.Reset()
	}
}

// Enabled reports whether a memory-side cache exists (cache/hybrid modes).
func (p *Policy) Enabled() bool { return p.slices != nil }

// Probe checks whether line l is cached in the slice of EDC e.
func (p *Policy) Probe(e int, l cache.Line) bool {
	return p.slices[e].Probe(l)
}

// Peek reports presence in EDC e's slice without counter side effects.
func (p *Policy) Peek(e int, l cache.Line) bool {
	return p.slices[e].Peek(l)
}

// Fill installs line l in EDC e's slice; the returned victim must be
// written back to DDR when dirty (the MCDRAM cache is inclusive of modified
// L2 lines, so write-backs land here first and propagate on eviction).
func (p *Policy) Fill(e int, l cache.Line) (victim cache.Line, dirty, ok bool) {
	return p.slices[e].Fill(l)
}

// MarkDirty records a write-back of line l into EDC e's slice.
func (p *Policy) MarkDirty(e int, l cache.Line) {
	p.slices[e].MarkDirty(l)
}

// Digest returns a hash of the memory-side cache state across all EDC
// slices (0 when the policy is pass-through), for machine.StateDigest.
func (p *Policy) Digest() uint64 {
	if !p.Enabled() {
		return 0
	}
	var sum uint64
	for e, s := range p.slices {
		// Mix with the slice index so swapped slice states change the sum.
		sum += (uint64(e) + 0x9e3779b97f4a7c15) * s.Digest()
	}
	return sum
}

// HitRate returns the aggregate probe hit rate across slices.
func (p *Policy) HitRate() float64 {
	if !p.Enabled() {
		return 0
	}
	var hits, total uint64
	for _, s := range p.slices {
		h, m, _ := s.Stats()
		hits += h
		total += h + m
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// SliceCapacityBytes returns the per-EDC cache capacity (0 when disabled).
func (p *Policy) SliceCapacityBytes() int64 {
	if !p.Enabled() {
		return 0
	}
	return p.slices[0].CapacityBytes()
}

// Buffer is a line-aligned allocation.
type Buffer struct {
	Base     uint64
	Bytes    int64
	Kind     knl.MemKind
	Affinity int // NUMA cluster for SNC modes; 0 otherwise
}

// NumLines returns the number of cache lines spanned.
func (b Buffer) NumLines() int { return int(b.Bytes / knl.LineSize) }

// Line returns the i-th cache line of the buffer.
func (b Buffer) Line(i int) cache.Line {
	return cache.LineOf(b.Base + uint64(i)*knl.LineSize)
}

// Slice returns a sub-buffer of the given byte range (line-aligned).
func (b Buffer) Slice(off, bytes int64) Buffer {
	if off%knl.LineSize != 0 || bytes%knl.LineSize != 0 || off+bytes > b.Bytes {
		panic("memmode: unaligned or out-of-range slice")
	}
	return Buffer{Base: b.Base + uint64(off), Bytes: bytes, Kind: b.Kind, Affinity: b.Affinity}
}

// Allocator is a bump allocator over the simulated physical address space.
// Buffers are padded to line multiples and never reused; the 1 TB gap
// between technologies makes kind recovery from an address trivial.
type Allocator struct {
	cfg        knl.Config
	nextDDR    uint64
	nextMCDRAM uint64
	// allocation logs, ordered by base address (bump allocation keeps them
	// sorted), for reverse lookup of evicted lines.
	ddrBufs    []Buffer
	mcdramBufs []Buffer
}

// NewAllocator builds an allocator for the configuration.
func NewAllocator(cfg knl.Config) *Allocator {
	return &Allocator{cfg: cfg, nextDDR: DDRBase, nextMCDRAM: MCDRAMBase}
}

// Alloc reserves bytes (rounded up to lines) of the given kind with the
// given cluster affinity. Allocating MCDRAM is an error in cache mode
// (the hardware exposes no flat MCDRAM range there).
func (a *Allocator) Alloc(kind knl.MemKind, affinity int, bytes int64) (Buffer, error) {
	if bytes <= 0 {
		return Buffer{}, fmt.Errorf("memmode: alloc of %d bytes", bytes)
	}
	if kind == knl.MCDRAM && a.cfg.Memory == knl.CacheMode {
		return Buffer{}, fmt.Errorf("memmode: no flat MCDRAM in cache mode")
	}
	nClusters := a.cfg.Cluster.Clusters()
	if affinity < 0 || affinity >= nClusters {
		return Buffer{}, fmt.Errorf("memmode: affinity %d out of range [0,%d)", affinity, nClusters)
	}
	rounded := (bytes + knl.LineSize - 1) &^ (knl.LineSize - 1)
	var base uint64
	if kind == knl.DDR {
		base = a.nextDDR
		a.nextDDR += uint64(rounded)
	} else {
		base = a.nextMCDRAM
		a.nextMCDRAM += uint64(rounded)
	}
	aff := affinity
	if !a.cfg.Cluster.NUMAVisible() {
		aff = 0
	}
	b := Buffer{Base: base, Bytes: rounded, Kind: kind, Affinity: aff}
	if kind == knl.DDR {
		a.ddrBufs = append(a.ddrBufs, b)
	} else {
		a.mcdramBufs = append(a.mcdramBufs, b)
	}
	return b, nil
}

// Buffers returns the allocation log of one kind in ascending base order
// (bump allocation keeps it sorted). The machine's dense line tables sync
// their buffer registry from it; callers must not mutate the slice.
func (a *Allocator) Buffers(kind knl.MemKind) []Buffer {
	if kind == knl.DDR {
		return a.ddrBufs
	}
	return a.mcdramBufs
}

// Reset forgets every allocation and returns the bump pointers to the
// base of each technology (machine pooling). Buffers handed out before
// the Reset must not be used with the owning machine afterwards.
func (a *Allocator) Reset() {
	a.nextDDR = DDRBase
	a.nextMCDRAM = MCDRAMBase
	a.ddrBufs = a.ddrBufs[:0]
	a.mcdramBufs = a.mcdramBufs[:0]
}

// MustAlloc is Alloc that panics on error, for benchmark setup code.
func (a *Allocator) MustAlloc(kind knl.MemKind, affinity int, bytes int64) Buffer {
	b, err := a.Alloc(kind, affinity, bytes)
	if err != nil {
		panic(err)
	}
	return b
}
