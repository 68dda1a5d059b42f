package memmode

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

func TestKindOfAddr(t *testing.T) {
	if KindOfAddr(0) != knl.DDR || KindOfAddr(MCDRAMBase-1) != knl.DDR {
		t.Error("low addresses must be DDR")
	}
	if KindOfAddr(MCDRAMBase) != knl.MCDRAM {
		t.Error("high addresses must be MCDRAM")
	}
}

func TestPolicyDisabledInFlat(t *testing.T) {
	p := NewPolicy(knl.DefaultConfig()) // flat
	if p.Enabled() {
		t.Error("flat mode must have no memory-side cache")
	}
	if p.HitRate() != 0 || p.SliceCapacityBytes() != 0 {
		t.Error("disabled policy should report zeros")
	}
}

func TestPolicyCacheModeSlices(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode)
	p := NewPolicy(cfg)
	if !p.Enabled() {
		t.Fatal("cache mode must enable the policy")
	}
	wantPer := cfg.MCDRAMCacheBytes() / knl.NumEDC
	if got := p.SliceCapacityBytes(); got != wantPer {
		t.Errorf("slice capacity = %d, want %d", got, wantPer)
	}
	// Probe-miss then fill then probe-hit.
	if p.Probe(0, 42) {
		t.Error("empty slice probe hit")
	}
	p.Fill(0, 42)
	if !p.Probe(0, 42) {
		t.Error("probe after fill missed")
	}
	// Slices are independent per EDC.
	if p.Probe(1, 42) {
		t.Error("fill leaked into another EDC slice")
	}
	if hr := p.HitRate(); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate = %v, want in (0,1)", hr)
	}
}

func TestPolicyDirtyEviction(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode)
	p := NewPolicy(cfg)
	sets := uint64(p.SliceCapacityBytes() / 64)
	p.Fill(3, cache.Line(5))
	p.MarkDirty(3, cache.Line(5))
	victim, dirty, ok := p.Fill(3, cache.Line(5+sets)) // same set
	if !ok || victim != 5 || !dirty {
		t.Errorf("eviction = (%v,%v,%v), want (5,true,true)", victim, dirty, ok)
	}
}

func TestPolicyHybridSmallerThanCache(t *testing.T) {
	cacheCfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode)
	hybridCfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.Hybrid)
	pc, ph := NewPolicy(cacheCfg), NewPolicy(hybridCfg)
	if ph.SliceCapacityBytes() >= pc.SliceCapacityBytes() {
		t.Errorf("hybrid slice %d >= cache slice %d",
			ph.SliceCapacityBytes(), pc.SliceCapacityBytes())
	}
}

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(knl.DefaultConfig())
	b1 := a.MustAlloc(knl.DDR, 0, 100) // rounds to 128
	if b1.Bytes != 128 || b1.Kind != knl.DDR || b1.NumLines() != 2 {
		t.Errorf("buffer = %+v", b1)
	}
	b2 := a.MustAlloc(knl.DDR, 1, 64)
	if b2.Base < b1.Base+uint64(b1.Bytes) {
		t.Error("allocations overlap")
	}
	m := a.MustAlloc(knl.MCDRAM, 2, 64)
	if KindOfAddr(m.Base) != knl.MCDRAM {
		t.Error("MCDRAM buffer allocated in DDR range")
	}
	if m.Affinity != 2 {
		t.Errorf("affinity = %d, want 2 (SNC4 is NUMA-visible)", m.Affinity)
	}
}

func TestAllocatorTransparentModeClearsAffinity(t *testing.T) {
	a := NewAllocator(knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat))
	b := a.MustAlloc(knl.DDR, 3, 64)
	if b.Affinity != 0 {
		t.Errorf("transparent-mode affinity = %d, want 0", b.Affinity)
	}
}

func TestAllocatorErrors(t *testing.T) {
	a := NewAllocator(knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode))
	if _, err := a.Alloc(knl.MCDRAM, 0, 64); err == nil {
		t.Error("MCDRAM alloc in cache mode must fail")
	}
	if _, err := a.Alloc(knl.DDR, 9, 64); err == nil {
		t.Error("out-of-range affinity must fail")
	}
	if _, err := a.Alloc(knl.DDR, 0, 0); err == nil {
		t.Error("zero-byte alloc must fail")
	}
}

func TestBufferLineAndSlice(t *testing.T) {
	a := NewAllocator(knl.DefaultConfig())
	b := a.MustAlloc(knl.DDR, 0, 4*64)
	if b.Line(2) != cache.LineOf(b.Base)+2 {
		t.Errorf("Line(2) = %v", b.Line(2))
	}
	s := b.Slice(64, 128)
	if s.NumLines() != 2 || s.Base != b.Base+64 {
		t.Errorf("slice = %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("unaligned slice did not panic")
		}
	}()
	b.Slice(32, 64)
}
