package machine

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
)

// checkCoherence verifies the MESIF single-writer/multi-reader invariants
// and directory consistency for every line of the given buffers.
func checkCoherence(t *testing.T, m *Machine, bufs []memmode.Buffer) {
	t.Helper()
	for _, b := range bufs {
		for li := 0; li < b.NumLines(); li++ {
			l := b.Line(li)
			owners := m.owners(l)
			var holders, exclusive, forwarders int
			for tile := 0; tile < m.NumTiles(); tile++ {
				st := m.LineState(tile, l)
				bit := owners&(1<<uint(tile)) != 0
				if (st != cache.Invalid) != bit {
					t.Fatalf("line %d tile %d: L2 state %v but directory bit %v", l, tile, st, bit)
				}
				switch st {
				case cache.Modified, cache.Exclusive:
					exclusive++
					holders++
				case cache.Forward:
					forwarders++
					holders++
				case cache.Shared:
					holders++
				}
				// L1 copies must be backed by the tile's L2 (inclusion).
				for c := 0; c < knl.CoresPerTile; c++ {
					if m.L1State(tile*knl.CoresPerTile+c, l) != cache.Invalid &&
						st == cache.Invalid {
						t.Fatalf("line %d: L1 of tile %d holds line absent from L2", l, tile)
					}
				}
			}
			if exclusive > 1 {
				t.Fatalf("line %d: %d M/E holders", l, exclusive)
			}
			if exclusive == 1 && holders > 1 {
				t.Fatalf("line %d: M/E coexists with %d other holders", l, holders-1)
			}
			if forwarders > 1 {
				t.Fatalf("line %d: %d Forward holders", l, forwarders)
			}
		}
	}
}

// TestCoherenceFuzz drives random loads/stores/NT-stores from random cores
// over a small set of lines and checks the MESIF invariants afterwards.
func TestCoherenceFuzz(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		for _, cfgCase := range []knl.Config{
			knl.DefaultConfig(),
			knl.DefaultConfig().WithModes(knl.A2A, knl.Flat),
			knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode),
		} {
			m := noJitter(cfgCase)
			var bufs []memmode.Buffer
			for i := 0; i < 4; i++ {
				bufs = append(bufs, m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize))
			}
			rng := stats.NewRNG(seed)
			const actors = 12
			for a := 0; a < actors; a++ {
				core := rng.Intn(knl.NumCores)
				ops := make([]int, 40)
				for i := range ops {
					ops[i] = rng.Intn(3)<<16 | rng.Intn(4)<<8 | rng.Intn(4)
				}
				spawnScript(m, place(core), func(s *Script) { lineOps(s, bufs, ops) })
			}
			if _, err := m.Run(); err != nil {
				t.Fatalf("seed %d cfg %s: %v", seed, cfgCase.Name(), err)
			}
			checkCoherence(t, m, bufs)
		}
	}
}

// TestAllFifteenConfigurations boots every cluster-mode x memory-mode
// combination the paper enumerates and exercises a load, a store and a
// stream on each.
func TestAllFifteenConfigurations(t *testing.T) {
	for _, cm := range knl.ClusterModes {
		for _, mm := range []knl.MemoryMode{knl.Flat, knl.CacheMode, knl.Hybrid} {
			cfg := knl.DefaultConfig().WithModes(cm, mm)
			m := noJitter(cfg)
			b := m.Alloc.MustAlloc(knl.DDR, 0, 64*knl.LineSize)
			var dur float64
			dur = runOne(t, m, place(0), func(s *Script) {
				s.Load(b, 0)
				s.Store(b, 1)
				s.StoreNT(b, 2)
				s.Op(readOp(b), nil)
			})
			if dur <= 0 {
				t.Errorf("%s: no simulated time elapsed", cfg.Name())
			}
			// Hybrid and cache modes must have an enabled side cache.
			if mm != knl.Flat && !m.Policy.Enabled() {
				t.Errorf("%s: side cache not enabled", cfg.Name())
			}
		}
	}
}

// TestFlushedThenReprimedBehavesFresh checks the epoch-flush machinery: a
// buffer that was primed, flushed (the epoch fast path), and re-primed
// must be indistinguishable from one primed on a fresh machine — same
// coherence state and identical load timing.
func TestFlushedThenReprimedBehavesFresh(t *testing.T) {
	cfg := knl.DefaultConfig()
	const owner = 6 // off tile 0, so the load pays a real transfer

	fresh := noJitter(cfg)
	fb := fresh.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
	fresh.Prime(fb, owner, cache.Modified)
	var freshLat float64
	runOne(t, fresh, place(0), func(s *Script) {
		timed(fresh, s, func() { s.Load(fb, 0) }, func(d float64) { freshLat = d })
	})

	m := noJitter(cfg)
	b := m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
	m.Prime(b, owner, cache.Modified)
	m.FlushBuffer(b) // whole-allocation epoch flush
	for li := 0; li < b.NumLines(); li++ {
		l := b.Line(li)
		if o := m.owners(l); o != 0 {
			t.Fatalf("line %d: owners %b survive the flush", li, o)
		}
		for tile := 0; tile < m.NumTiles(); tile++ {
			if st := m.LineState(tile, l); st != cache.Invalid {
				t.Fatalf("line %d: tile %d still holds %v after flush", li, tile, st)
			}
		}
	}
	m.Prime(b, owner, cache.Modified)
	checkCoherence(t, m, []memmode.Buffer{b})
	var lat float64
	runOne(t, m, place(0), func(s *Script) {
		timed(m, s, func() { s.Load(b, 0) }, func(d float64) { lat = d })
	})
	if lat != freshLat {
		t.Errorf("re-primed load = %v ns, fresh prime = %v ns", lat, freshLat)
	}
}

// TestHybridModeSplitsMCDRAM checks hybrid mode specifics: flat MCDRAM is
// allocatable AND the side cache exists with half the capacity.
func TestHybridModeSplitsMCDRAM(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.Hybrid)
	m := noJitter(cfg)
	mc := m.Alloc.MustAlloc(knl.MCDRAM, 0, 64*32)
	if mc.Kind != knl.MCDRAM {
		t.Fatal("hybrid mode must allow flat MCDRAM allocation")
	}
	cacheCfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode)
	if m.Policy.SliceCapacityBytes() >= memmode.NewPolicy(cacheCfg).SliceCapacityBytes() {
		t.Error("hybrid side cache should be smaller than cache-mode's")
	}
	// Flat-MCDRAM access must not consult the side cache.
	var lat float64
	runOne(t, m, place(0), func(s *Script) {
		timed(m, s, func() { s.Load(mc, 0) }, func(d float64) { lat = d })
	})
	if lat < 150 || lat > 190 {
		t.Errorf("hybrid flat-MCDRAM latency = %v, want ~167", lat)
	}
}

// TestHybridDDRGoesThroughSideCache checks that DDR lines use the (half-
// sized) side cache in hybrid mode. Note the paper's subtlety: a side-cache
// *hit* is served by MCDRAM, whose device latency exceeds DDR's — the side
// cache buys bandwidth, not latency — so the assertion is on cache state
// and latency bands, not on hit-is-faster.
func TestHybridDDRGoesThroughSideCache(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.Hybrid)
	m := noJitter(cfg)
	b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
	var cold, warm float64
	runOne(t, m, place(0), func(s *Script) {
		timed(m, s, func() { s.Load(b, 0) }, func(d float64) { cold = d }) // cold: DDR + fill
		s.Do(func() { m.FlushLine(b.Line(0)) })                            // drop from L1/L2, stays in side cache
		timed(m, s, func() { s.Load(b, 0) }, func(d float64) { warm = d }) // warm: MCDRAM side-cache hit
	})
	if m.Policy.HitRate() <= 0 {
		t.Error("side cache saw no hits")
	}
	for _, c := range []struct {
		name string
		v    float64
	}{{"cold", cold}, {"warm", warm}} {
		if c.v < 145 || c.v > 200 {
			t.Errorf("%s hybrid read = %v ns, want in [145,200]", c.name, c.v)
		}
	}
}
