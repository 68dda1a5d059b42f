package machine

import (
	"testing"

	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
)

// kernel appends one stream-kernel iteration over a thread-private buffer
// set to s.
type kernel func(m *Machine, s *Script, dst, src, src2 memmode.Buffer)

// aggregateGBs runs `threads` simulated threads, each iterating the kernel
// over private buffers of `lines` lines, and returns the aggregate counted
// bandwidth in GB/s (countedBytesPerLine covers the STREAM counting
// convention: read 64, write 64, copy 128, triad 192 per line index).
func aggregateGBs(t *testing.T, cfg knl.Config, threads, lines, iters int,
	countedBytesPerLine float64, kind knl.MemKind, k kernel) float64 {
	t.Helper()
	m := New(cfg)
	places := knl.Pin(knl.FillTiles, m.NumTiles(), threads)
	var maxEnd float64
	for _, pl := range places {
		aff := m.Mapper.ClusterOfTile(pl.Tile)
		if !cfg.Cluster.NUMAVisible() {
			aff = 0
		}
		dst := m.Alloc.MustAlloc(kind, aff, int64(lines)*64)
		src := m.Alloc.MustAlloc(kind, aff, int64(lines)*64)
		src2 := m.Alloc.MustAlloc(kind, aff, int64(lines)*64)
		spawnScript(m, pl, func(s *Script) {
			for it := 0; it < iters; it++ {
				k(m, s, dst, src, src2)
			}
			atEnd(m, s, &maxEnd)
		})
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	total := float64(threads) * float64(lines) * float64(iters) * countedBytesPerLine
	return total / maxEnd // bytes per ns == GB/s
}

var (
	readKernel = func(m *Machine, s *Script, dst, src, src2 memmode.Buffer) {
		s.Op(readOp(src), nil)
		s.Do(func() { m.FlushBuffer(src) }) // next iteration re-reads from memory
	}
	writeNTKernel = func(m *Machine, s *Script, dst, src, src2 memmode.Buffer) {
		s.Op(writeOp(dst, true), nil)
	}
	copyNTKernel = func(m *Machine, s *Script, dst, src, src2 memmode.Buffer) {
		s.Op(copyOp(dst, src, true), nil)
		s.Do(func() { m.FlushBuffer(src) })
	}
	triadNTKernel = func(m *Machine, s *Script, dst, src, src2 memmode.Buffer) {
		s.Op(triadOp(dst, src, src2, true), nil)
		s.Do(func() {
			m.FlushBuffer(src)
			m.FlushBuffer(src2)
		})
	}
)

func TestDDRBandwidthCeilings(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat)
	const lines, iters = 512, 2
	read := aggregateGBs(t, cfg, 32, lines, iters, 64, knl.DDR, readKernel)
	if read < 60 || read > 85 {
		t.Errorf("DDR read = %.1f GB/s, want ~77 (Table II)", read)
	}
	write := aggregateGBs(t, cfg, 32, lines, iters, 64, knl.DDR, writeNTKernel)
	if write < 28 || write > 42 {
		t.Errorf("DDR write = %.1f GB/s, want ~36", write)
	}
	cp := aggregateGBs(t, cfg, 32, lines, iters, 128, knl.DDR, copyNTKernel)
	if cp < 55 || cp > 85 {
		t.Errorf("DDR copy NT = %.1f GB/s, want ~70", cp)
	}
	triad := aggregateGBs(t, cfg, 32, lines, iters, 192, knl.DDR, triadNTKernel)
	if triad < 60 || triad > 100 {
		t.Errorf("DDR triad NT = %.1f GB/s, want ~74-89", triad)
	}
	// Orderings from Table II.
	if !(write < cp && cp <= triad+10) {
		t.Errorf("DDR ordering violated: write %.0f, copy %.0f, triad %.0f", write, cp, triad)
	}
}

func TestMCDRAMBandwidthCeilings(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.Flat)
	const lines, iters = 512, 2
	read := aggregateGBs(t, cfg, 128, lines, iters, 64, knl.MCDRAM, readKernel)
	if read < 230 || read > 330 {
		t.Errorf("MCDRAM read = %.1f GB/s, want ~243-314", read)
	}
	write := aggregateGBs(t, cfg, 128, lines, iters, 64, knl.MCDRAM, writeNTKernel)
	if write < 120 || write > 185 {
		t.Errorf("MCDRAM write = %.1f GB/s, want ~147-171", write)
	}
	cp := aggregateGBs(t, cfg, 128, lines, iters, 128, knl.MCDRAM, copyNTKernel)
	if cp < 260 || cp > 370 {
		t.Errorf("MCDRAM copy NT = %.1f GB/s, want ~342", cp)
	}
	triad := aggregateGBs(t, cfg, 128, lines, iters, 192, knl.MCDRAM, triadNTKernel)
	if triad < 300 || triad > 470 {
		t.Errorf("MCDRAM triad NT = %.1f GB/s, want ~371-448", triad)
	}
}

func TestMCDRAMNeedsManyThreads(t *testing.T) {
	// Figure 9: DRAM saturates with ~16 cores; MCDRAM keeps scaling to 64+.
	cfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.Flat)
	const lines, iters = 256, 2
	mc16 := aggregateGBs(t, cfg, 16, lines, iters, 64, knl.MCDRAM, readKernel)
	mc64 := aggregateGBs(t, cfg, 64, lines, iters, 64, knl.MCDRAM, readKernel)
	if mc64 < mc16*1.8 {
		t.Errorf("MCDRAM should keep scaling: 16t=%.0f, 64t=%.0f GB/s", mc16, mc64)
	}
	d16 := aggregateGBs(t, cfg, 16, lines, iters, 64, knl.DDR, readKernel)
	d64 := aggregateGBs(t, cfg, 64, lines, iters, 64, knl.DDR, readKernel)
	if d64 > d16*1.35 {
		t.Errorf("DDR should saturate by 16 threads: 16t=%.0f, 64t=%.0f GB/s", d16, d64)
	}
}

func TestModeOrderingMCDRAMCopy(t *testing.T) {
	// Table II: MCDRAM copy NT SNC4 (342) > A2A (306).
	const lines, iters = 256, 2
	snc4 := aggregateGBs(t, knl.DefaultConfig().WithModes(knl.SNC4, knl.Flat),
		64, lines, iters, 128, knl.MCDRAM, copyNTKernel)
	a2a := aggregateGBs(t, knl.DefaultConfig().WithModes(knl.A2A, knl.Flat),
		64, lines, iters, 128, knl.MCDRAM, copyNTKernel)
	if snc4 <= a2a {
		t.Errorf("MCDRAM copy: SNC4 (%.0f) should beat A2A (%.0f)", snc4, a2a)
	}
}

func TestNTvsCachedWriteAblation(t *testing.T) {
	// The paper: NT hints are necessary to approach peak (write-allocate
	// costs a read per written line).
	// Below saturation (2 threads) the RFO fetch latency of write-allocate
	// stores shows directly.
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat)
	const lines, iters = 512, 2
	nt := aggregateGBs(t, cfg, 2, lines, iters, 64, knl.DDR, writeNTKernel)
	cachedKernel := func(m *Machine, s *Script, dst, src, src2 memmode.Buffer) {
		s.Op(writeOp(dst, false), nil)
		s.Do(func() { m.FlushBuffer(dst) }) // force a fresh RFO next iteration
	}
	cached := aggregateGBs(t, cfg, 2, lines, iters, 64, knl.DDR, cachedKernel)
	if cached >= nt*0.85 {
		t.Errorf("cached writes (%.1f GB/s) should be clearly slower than NT (%.1f)", cached, nt)
	}
}

func TestCacheModeBandwidthBetweenFlatDDRAndMCDRAM(t *testing.T) {
	// Table II cache mode: read 87-128 GB/s — above flat DDR (77), far
	// below flat MCDRAM (314), because only ~half the working set hits the
	// side cache.
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode)
	m := New(cfg)
	const threads = 32
	places := knl.Pin(knl.FillTiles, m.NumTiles(), threads)
	// Per-thread working set 2x its share of the side cache, accessed in
	// randomly selected blocks like the paper's benchmark, so the
	// direct-mapped cache settles at an intermediate hit rate instead of
	// sequential thrash.
	perThreadBytes := 2 * cfg.MCDRAMCacheBytes() / threads
	const blockLines = 128
	var maxEnd float64
	var totalLines int
	rng := stats.NewRNG(99)
	for r, pl := range places {
		buf := m.Alloc.MustAlloc(knl.DDR, 0, perThreadBytes)
		blocks := buf.NumLines() / blockLines
		iters := 3 * blocks
		trng := stats.NewRNG(rng.Uint64() + uint64(r))
		spawnScript(m, pl, func(s *Script) {
			for it := 0; it < iters; it++ {
				from := trng.Intn(blocks) * blockLines
				s.ReadStreamRange(buf, from, blockLines, true)
				s.Do(func() { m.FlushBuffer(buf.Slice(int64(from)*64, blockLines*64)) })
			}
			atEnd(m, s, &maxEnd)
		})
		totalLines += iters * blockLines
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	gbs := float64(totalLines) * 64 / maxEnd
	if gbs < 80 || gbs > 200 {
		t.Errorf("cache-mode read = %.1f GB/s, want in [80,200] (paper 87-128)", gbs)
	}
	if hr := m.Policy.HitRate(); hr < 0.2 || hr > 0.9 {
		t.Errorf("side-cache hit rate = %.2f, want a genuine mix", hr)
	}
}

func TestSingleThreadMemoryBandwidthIsLatencyBound(t *testing.T) {
	// Per-thread DDR read ~5-8 GB/s: MLP*64B / latency.
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat)
	got := aggregateGBs(t, cfg, 1, 1024, 2, 64, knl.DDR, readKernel)
	if got < 4 || got > 9 {
		t.Errorf("single-thread DDR read = %.1f GB/s, want 4-9", got)
	}
	mc := aggregateGBs(t, cfg, 1, 1024, 2, 64, knl.MCDRAM, readKernel)
	if mc > got*1.6 {
		t.Errorf("single-thread MCDRAM read (%.1f) should not far exceed DDR (%.1f): both latency-bound", mc, got)
	}
}
