package machine

import (
	"runtime"
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
)

// strideKernel spawns a kernel issuing n single-line ops of the given kind
// over buf, striding by 7 lines (coprime to the buffer's line count).
func strideKernel(m *Machine, buf memmode.Buffer, lines, n int, kind KernelOpKind) {
	i := 0
	m.SpawnKernel(place(0), func(float64, uint64) (KernelOp, bool) {
		if i == n {
			return KernelOp{}, false
		}
		li := (i * 7) % lines
		i++
		return KernelOp{Kind: kind, B: buf, Li: li}, true
	})
}

// BenchmarkLoadLineHotPath measures the simulator cost of the per-line
// protocol walk itself: one kernel striding over a 2 MB DDR buffer, so
// nearly every access misses L2 and takes the full directory-to-memory
// path through the dense line tables. bench_baseline.sh records its ns/op
// as ns_per_line_access; allocs/op must stay 0 (amortized — table growth
// is one-time setup).
func BenchmarkLoadLineHotPath(b *testing.B) {
	lineHotPath(b, knl.DefaultConfig(), KernelLoad)
}

// BenchmarkStoreLineHotPath is the store-side twin: the RFO walk (tag
// probe, invalidate-others fan-out, memory write allocate) over the same
// 2 MB stride. ci.sh tier-2 gates it at 0 allocs/op alongside the load
// path, so neither ported walk regrows per-op garbage.
func BenchmarkStoreLineHotPath(b *testing.B) {
	lineHotPath(b, knl.DefaultConfig(), KernelStore)
}

// BenchmarkCacheLoadLineHotPath and BenchmarkCacheStoreLineHotPath run the
// same strides on SNC4-cache, so the memory read also takes the side-cache
// probe and fill junctures; ci.sh tier-2 gates them at 0 allocs/op too.
func BenchmarkCacheLoadLineHotPath(b *testing.B) {
	lineHotPath(b, knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode), KernelLoad)
}

func BenchmarkCacheStoreLineHotPath(b *testing.B) {
	lineHotPath(b, knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode), KernelStore)
}

// lineHotPath runs b.N single-line ops of kind on cfg, striding over a
// 2 MB DDR buffer: far beyond one tile's L2 share.
func lineHotPath(b *testing.B, cfg knl.Config, kind KernelOpKind) {
	m := noJitterF(cfg)
	const lines = 32768
	buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	strideKernel(m, buf, lines, b.N, kind)
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPrimeFlush measures the zero-time setup path benchmarks lean
// on between iterations. "flush" primes a buffer into a core's caches and
// retires it again with the epoch flush; "reprime" is the Table I copy
// pattern (bench's copyOnce), priming a source on a sibling core and a
// destination on core 0 over the copies the previous pass left, so every
// line is flushed from its tile and installed again. ci.sh gates both at
// 0 allocs/op.
func BenchmarkPrimeFlush(b *testing.B) {
	const lines = 256
	b.Run("flush", func(b *testing.B) {
		m := noJitterF(knl.DefaultConfig())
		buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Prime(buf, 0, cache.Exclusive)
			m.FlushBuffer(buf)
		}
	})
	b.Run("reprime", func(b *testing.B) {
		m := noJitterF(knl.DefaultConfig())
		src := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
		dst := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
		m.Prime(src, 1, cache.Exclusive)
		m.Prime(dst, 0, cache.Modified)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Prime(src, 1, cache.Exclusive)
			m.Prime(dst, 0, cache.Modified)
		}
	})
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

// streamOnce runs one stream op as a fresh kernel on m and returns when
// the machine is quiescent again.
func streamOnce(tb testing.TB, m *Machine, op KernelOp) {
	issued := false
	m.SpawnKernel(place(0), func(float64, uint64) (KernelOp, bool) {
		if issued {
			return KernelOp{}, false
		}
		issued = true
		return op, true
	})
	if _, err := m.Run(); err != nil {
		tb.Fatal(err)
	}
}

// TestFlushHelpersAllocateNothing guards the flush-helper free lists: an
// NT write stream over a DDR buffer books every line on the channels, so
// each chunk ends in a multi-channel flush that spawns one helper per
// channel. Re-running it on the same machine must reuse the helper frames
// (and the join's waiter list): allocations per run may not grow with the
// number of flushes. With a fresh frame per helper, the 16x longer stream
// allocates ~16x more.
func TestFlushHelpersAllocateNothing(t *testing.T) {
	m := noJitterF(knl.DefaultConfig())
	const long = 4096
	buf := m.Alloc.MustAlloc(knl.DDR, 0, long*knl.LineSize)
	allocs := func(n int) float64 {
		op := KernelOp{Kind: StreamWrite, Dst: buf, N: n, NT: true}
		return testing.AllocsPerRun(4, func() { streamOnce(t, m, op) })
	}
	short, longRun := allocs(long/16), allocs(long)
	busy := 0
	for ch := 0; ch < knl.DDRChannels; ch++ {
		if m.Mem.Channel(knl.DDR, ch).LinesWritten() != 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("the stream wrote to %d DDR channels, want several (no multi-channel flush)", busy)
	}
	if longRun > short {
		t.Errorf("allocs per run grow with the flush count: %.0f for %d lines, %.0f for %d",
			short, long/16, longRun, long)
	}
}

// BenchmarkStreamFlushHelpers measures one multi-channel NT write stream
// re-run on a warm machine: the chunk loop, the per-channel flush helpers
// and their join. allocs/op counts the per-run kernel spawn only; the
// helper frames come from the machine's free lists.
func BenchmarkStreamFlushHelpers(b *testing.B) {
	m := noJitterF(knl.DefaultConfig())
	const lines = 1024
	buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
	op := KernelOp{Kind: StreamWrite, Dst: buf, N: lines, NT: true}
	streamOnce(b, m, op)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamOnce(b, m, op)
	}
}
