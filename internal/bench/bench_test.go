package bench

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

func quick() Options { return DefaultOptions().Quick() }

func TestSampleReduction(t *testing.T) {
	s := NewSample([]float64{3, 1, 2, 4, 5})
	if s.Median != 3 {
		t.Errorf("median = %v, want 3", s.Median)
	}
	if !(s.CILo <= s.Median && s.Median <= s.CIHi) {
		t.Errorf("CI [%v,%v] does not bracket median", s.CILo, s.CIHi)
	}
	empty := NewSample(nil)
	if empty.Median != 0 {
		t.Error("empty sample should have zero median")
	}
}

func TestRangeOf(t *testing.T) {
	r := RangeOf([]float64{5, 1, 3})
	if r.Lo != 1 || r.Hi != 5 {
		t.Errorf("range = %+v", r)
	}
}

func TestCacheLatenciesTableI(t *testing.T) {
	got := MeasureCacheLatencies(knl.DefaultConfig(), quick(), 4)
	if got.LocalL1 < 3 || got.LocalL1 > 5 {
		t.Errorf("L1 = %.1f, want ~3.8", got.LocalL1)
	}
	if got.TileM < 30 || got.TileM > 38 {
		t.Errorf("tile M = %.1f, want ~34", got.TileM)
	}
	if got.TileE < 15 || got.TileE > 21 {
		t.Errorf("tile E = %.1f, want ~18", got.TileE)
	}
	if got.TileSF < 12 || got.TileSF > 17 {
		t.Errorf("tile S/F = %.1f, want ~14", got.TileSF)
	}
	for name, r := range map[string]Range{
		"M": got.RemoteM, "E": got.RemoteE, "SF": got.RemoteSF,
	} {
		if r.Lo < 90 || r.Hi > 140 {
			t.Errorf("remote %s band [%v,%v] outside [90,140]", name, r.Lo, r.Hi)
		}
	}
	if got.RemoteE.Hi > got.RemoteM.Hi+2 {
		t.Error("remote E should not exceed remote M")
	}
}

func TestPerCoreLatenciesFigure4(t *testing.T) {
	o := quick()
	o.Averages = 4
	pts := MeasurePerCoreLatencies(knl.DefaultConfig(), o,
		[]cache.State{cache.Exclusive, cache.Invalid})
	if len(pts) != 2*(knl.NumCores-1) {
		t.Fatalf("got %d points, want %d", len(pts), 2*(knl.NumCores-1))
	}
	// I-state (memory) latency must exceed E-state cache-to-cache for the
	// same target.
	byState := map[cache.State][]float64{}
	for _, p := range pts {
		byState[p.State] = append(byState[p.State], p.Latency)
	}
	avg := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(byState[cache.Invalid]) <= avg(byState[cache.Exclusive]) {
		t.Error("memory (I) latency should exceed cache-to-cache (E)")
	}
	// Distance spread within E series (Figure 4's visible structure).
	r := RangeOf(byState[cache.Exclusive])
	if r.Hi-r.Lo < 5 {
		t.Errorf("E spread %.1f too small", r.Hi-r.Lo)
	}
}

func TestMemLatenciesFlat(t *testing.T) {
	got := MeasureMemLatencies(knl.DefaultConfig(), quick())
	if got.DRAM.Lo < 120 || got.DRAM.Hi > 155 {
		t.Errorf("DRAM latency band [%v,%v], want ~130-146", got.DRAM.Lo, got.DRAM.Hi)
	}
	if got.MCDRAM.Lo < 150 || got.MCDRAM.Hi > 185 {
		t.Errorf("MCDRAM latency band [%v,%v], want ~160-175", got.MCDRAM.Lo, got.MCDRAM.Hi)
	}
	if got.MCDRAM.Lo <= got.DRAM.Lo {
		t.Error("MCDRAM latency must exceed DRAM latency")
	}
	// SNC4 exposes NUMA distance: the band must have width.
	if got.DRAM.Hi-got.DRAM.Lo <= 0 {
		t.Error("SNC4 DRAM band should have nonzero width")
	}
}

func TestMemLatenciesCacheMode(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode)
	got := MeasureMemLatencies(cfg, quick())
	mid := (got.Cache.Lo + got.Cache.Hi) / 2
	if mid < 150 || mid > 200 {
		t.Errorf("cache-mode latency ~%.0f, want 158-178 band", mid)
	}
}

func TestContentionTableI(t *testing.T) {
	o := quick()
	o.Iterations = 8
	res := MeasureContention(knl.DefaultConfig(), o, []int{1, 4, 8, 16, 32})
	if res.Beta < 20 || res.Beta > 50 {
		t.Errorf("beta = %.1f, want ~34 (medians %v)", res.Beta, res.Medians)
	}
	if res.R2 < 0.95 {
		t.Errorf("contention fit R2 = %.3f, want >= 0.95 (linear)", res.R2)
	}
	if res.Alpha < 50 || res.Alpha > 400 {
		t.Errorf("alpha = %.1f, want ~200", res.Alpha)
	}
}

func TestCongestionNone(t *testing.T) {
	o := quick()
	res := MeasureCongestion(knl.DefaultConfig(), o, 8)
	if res.Ratio > 1.25 {
		t.Errorf("congestion ratio = %.2f, paper reports None (~1.0)", res.Ratio)
	}
	if res.SinglePair <= 0 {
		t.Error("single-pair latency must be positive")
	}
	// The structural reason: the rings stay nearly idle under P2P pairs.
	if res.MaxRingUtilization > 0.2 {
		t.Errorf("ring utilization = %.2f, expected far below saturation", res.MaxRingUtilization)
	}
	if res.MaxRingUtilization <= 0 {
		t.Error("ring utilization not recorded")
	}
}

func TestCacheBandwidthsTableI(t *testing.T) {
	o := quick()
	o.Iterations = 6
	got := MeasureCacheBandwidths(knl.DefaultConfig(), o, []int{1024})
	if got.Read < 1.8 || got.Read > 3.5 {
		t.Errorf("read = %.2f GB/s, want ~2.5", got.Read)
	}
	if got.CopyTileE < 7 || got.CopyTileE > 11 {
		t.Errorf("tile copy E = %.2f GB/s, want ~9.2", got.CopyTileE)
	}
	if got.CopyTileM < 5.5 || got.CopyTileM > 8 {
		t.Errorf("tile copy M = %.2f GB/s, want ~6.7", got.CopyTileM)
	}
	if got.CopyRemote < 6 || got.CopyRemote > 9 {
		t.Errorf("remote copy = %.2f GB/s, want ~7.5", got.CopyRemote)
	}
	if got.CopyTileM >= got.CopyTileE {
		t.Error("tile copy M must be slower than E (write-back cost)")
	}
}

func TestCopyBySizeFigure5(t *testing.T) {
	o := quick()
	o.Iterations = 4
	cfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode)
	pts := MeasureCopyBySize(cfg, o, []int{64, 4096, 65536})
	if len(pts) != 3*2*3 {
		t.Fatalf("got %d points, want 18", len(pts))
	}
	// At every placement, E >= M for the same size (write-back cost), and
	// single-line (64 B) messages are slower than large ones.
	type key struct {
		pl Placement
		st cache.State
		b  int
	}
	byKey := map[key]float64{}
	for _, p := range pts {
		byKey[key{p.Placement, p.State, p.Bytes}] = p.GBs
	}
	for _, pl := range []Placement{SameTile, SameQuadrant, RemoteQuadrant} {
		for _, b := range []int{4096, 65536} {
			if byKey[key{pl, cache.Exclusive, b}] < byKey[key{pl, cache.Modified, b}]*0.95 {
				t.Errorf("%v %dB: E (%.2f) below M (%.2f)", pl, b,
					byKey[key{pl, cache.Exclusive, b}], byKey[key{pl, cache.Modified, b}])
			}
		}
		if byKey[key{pl, cache.Exclusive, 64}] >= byKey[key{pl, cache.Exclusive, 65536}] {
			t.Errorf("%v: single-line copy should be slower than 64KB", pl)
		}
	}
}

func TestMemBandwidthPoints(t *testing.T) {
	o := quick()
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat)
	read := MeasureMemBandwidth(cfg, o, KernelRead, knl.DDR, true, 16, knl.FillTiles)
	if read.GBs < 45 || read.GBs > 85 {
		t.Errorf("DDR read @16t = %.1f GB/s, want near saturation (~70)", read.GBs)
	}
	write := MeasureMemBandwidth(cfg, o, KernelWrite, knl.DDR, true, 16, knl.FillTiles)
	if write.GBs < 25 || write.GBs > 42 {
		t.Errorf("DDR write @16t = %.1f GB/s, want ~36", write.GBs)
	}
	if write.GBs >= read.GBs {
		t.Error("write must be slower than read on DDR")
	}
}

func TestTriadSweepFigure9Shape(t *testing.T) {
	o := quick()
	o.Iterations = 6
	pts := TriadSweep(knl.DefaultConfig(), o, knl.FillTiles, []int{4, 32, 64})
	series := map[knl.MemKind][]float64{}
	for _, p := range pts {
		series[p.Kind] = append(series[p.Kind], p.GBs)
	}
	mc, dd := series[knl.MCDRAM], series[knl.DDR]
	if len(mc) != 3 || len(dd) != 3 {
		t.Fatalf("series sizes %d/%d", len(mc), len(dd))
	}
	// MCDRAM keeps scaling from 32 to 64 threads; DDR has flattened.
	if mc[2] < mc[1]*1.2 {
		t.Errorf("MCDRAM triad should scale 32->64 threads: %v", mc)
	}
	if dd[2] > dd[1]*1.35 {
		t.Errorf("DDR triad should be saturated by 32 threads: %v", dd)
	}
	// MCDRAM beats DDR at high thread counts by a large factor.
	if mc[2] < dd[2]*2 {
		t.Errorf("MCDRAM (%.0f) should be >2x DDR (%.0f) at 64 threads", mc[2], dd[2])
	}
}

func TestStreamPeakAboveMedian(t *testing.T) {
	o := quick()
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat)
	med := MeasureMemBandwidth(cfg, o, KernelTriad, knl.DDR, true, 32, knl.FillTiles).GBs
	peak := MeasureStreamPeak(cfg, o, KernelTriad, knl.DDR, 32, knl.FillTiles)
	if peak < med*0.9 {
		t.Errorf("STREAM peak (%.1f) should not be below the windowed median (%.1f)", peak, med)
	}
}

func TestMaxMedianPicksBest(t *testing.T) {
	o := quick()
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat)
	four := MeasureMemBandwidth(cfg, o, KernelRead, knl.DDR, true, 4, knl.FillTiles)
	best := maxMedian([]MemBWPoint{four,
		MeasureMemBandwidth(cfg, o, KernelRead, knl.DDR, true, 32, knl.FillTiles)})
	if best.GBs < four.GBs {
		t.Errorf("max-median (%.1f) below the 4-thread point (%.1f)", best.GBs, four.GBs)
	}
	if best.Threads != 32 {
		t.Errorf("best thread count = %d, want 32 (saturation)", best.Threads)
	}
}

func TestOwnerForPlacementGeometry(t *testing.T) {
	cfg := knl.DefaultConfig()
	fp := knl.NewFloorplan(cfg.YieldSeed)
	q0 := fp.TileQuadrant(0)
	if c := ownerForPlacement(cfg, SameTile); c != 1 {
		t.Errorf("same-tile owner = %d, want 1", c)
	}
	sq := ownerForPlacement(cfg, SameQuadrant)
	if fp.TileQuadrant(sq/knl.CoresPerTile) != q0 {
		t.Error("same-quadrant owner not in quadrant 0")
	}
	rq := ownerForPlacement(cfg, RemoteQuadrant)
	if fp.TileQuadrant(rq/knl.CoresPerTile) == q0 {
		t.Error("remote-quadrant owner in quadrant 0")
	}
}
