package machine

import (
	"runtime"
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

// BenchmarkLoadLineHotPath measures the simulator cost of the per-line
// protocol walk itself: one thread striding over a 2 MB DDR buffer, so
// nearly every access misses L2 and takes the full directory-to-memory
// path through the dense line tables. bench_baseline.sh records its ns/op
// as ns_per_line_access; allocs/op must stay 0 (amortized — table growth
// is one-time setup).
func BenchmarkLoadLineHotPath(b *testing.B) {
	m := noJitterF(knl.DefaultConfig())
	const lines = 32768 // 2 MB: far beyond one tile's L2 share
	buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	m.Spawn(place(0), func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Load(buf, (i*7)%lines) // stride 7 is coprime to the buffer
		}
	})
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreLineHotPath is the store-side twin: the RFO walk (tag
// probe, invalidate-others fan-out, memory write allocate) over the same
// 2 MB stride. ci.sh tier-2 gates it at 0 allocs/op alongside the load
// path, so neither ported walk regrows per-op garbage.
func BenchmarkStoreLineHotPath(b *testing.B) {
	m := noJitterF(knl.DefaultConfig())
	const lines = 32768
	buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	m.Spawn(place(0), func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Store(buf, (i*7)%lines)
		}
	})
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPrimeFlush measures the zero-time setup path benchmarks lean
// on between iterations: priming a buffer into a core's caches and
// retiring it again with the epoch flush.
func BenchmarkPrimeFlush(b *testing.B) {
	m := noJitterF(knl.DefaultConfig())
	const lines = 256
	buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Prime(buf, 0, cache.Exclusive)
		m.FlushBuffer(buf)
	}
}

// BenchmarkNewMachine measures building a machine from scratch: what every
// unpooled sweep point and every CLI run pays before its first event. Tag
// arrays get their storage on first install, so construction itself stays
// small; the snc4-cache case adds the memory-side cache slices.
func BenchmarkNewMachine(b *testing.B) {
	for _, cfg := range []knl.Config{
		knl.DefaultConfig().WithModes(knl.SNC4, knl.Flat),
		knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode),
	} {
		b.Run(cfg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(cfg)
			}
		})
	}
}

// TestNewMachineAllocBytes guards construction cost: a flat-mode machine
// must not allocate tag storage it has not touched (eagerly it was
// 13.4 MB, 38 L2 and 76 L1 arrays).
func TestNewMachineAllocBytes(t *testing.T) {
	const builds, limit = 8, 1 << 20
	cfg := knl.DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		New(cfg)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= limit {
		t.Errorf("flat machine.New allocates %d bytes, want < %d", per, limit)
	}
}
