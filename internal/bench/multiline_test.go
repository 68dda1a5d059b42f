package bench

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

func TestMultiLineLinearFit(t *testing.T) {
	o := quick()
	o.Iterations = 5
	fit := MeasureMultiLine(knl.DefaultConfig(), o, cache.Exclusive,
		[]int{1, 8, 32, 128, 512})
	if fit.R2 < 0.98 {
		t.Errorf("multi-line latency not linear: R2 = %.3f (medians %v)", fit.R2, fit.Medians)
	}
	if fit.Beta <= 0 {
		t.Fatalf("slope = %v, want positive", fit.Beta)
	}
	// The slope's reciprocal is the remote copy bandwidth: ~7.5 GB/s.
	if bw := knl.LineSize / fit.Beta; bw < 6 || bw > 9.5 {
		t.Errorf("asymptotic copy bandwidth = %.2f GB/s, want ~7.5", bw)
	}
	// The intercept is the protocol startup: on the order of one remote
	// transfer latency.
	if fit.Alpha < 0 || fit.Alpha > 400 {
		t.Errorf("alpha = %.0f ns implausible", fit.Alpha)
	}
}

func TestMultiLineMSlowerThanE(t *testing.T) {
	o := quick()
	o.Iterations = 4
	e := MeasureMultiLine(knl.DefaultConfig(), o, cache.Exclusive, []int{16, 128})
	m := MeasureMultiLine(knl.DefaultConfig(), o, cache.Modified, []int{16, 128})
	if m.Medians[1] <= e.Medians[1] {
		t.Errorf("M copy (%v) should be slower than E copy (%v) at 128 lines",
			m.Medians[1], e.Medians[1])
	}
}

func TestNUMAAblation(t *testing.T) {
	o := quick()
	o.Iterations = 6
	cfg := knl.DefaultConfig() // SNC4
	pts := MeasureNUMAAblation(cfg, o, 32)
	byPol := map[NUMAPolicy]float64{}
	for _, p := range pts {
		byPol[p.Policy] = p.GBs
	}
	// Node-0 allocation funnels everything through one IMC's channels.
	if byPol[NUMANode0] > byPol[NUMALocal]*0.75 {
		t.Errorf("node0 (%.1f GB/s) should be well below local (%.1f GB/s)",
			byPol[NUMANode0], byPol[NUMALocal])
	}
	// Round-robin lands between the two (it reaches both IMCs).
	if byPol[NUMARoundRobin] < byPol[NUMANode0] {
		t.Errorf("round-robin (%.1f) below node0 (%.1f)",
			byPol[NUMARoundRobin], byPol[NUMANode0])
	}
}

func TestNUMAAblationRequiresSNC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("transparent mode did not panic")
		}
	}()
	MeasureNUMAAblation(knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat),
		quick(), 8)
}

func TestCalibrateTSC(t *testing.T) {
	trueSkew := []float64{0, 35, -120, 7, 240}
	cal := CalibrateTSC(knl.DefaultConfig(), trueSkew)
	if len(cal.EstimatedNs) != len(trueSkew) {
		t.Fatalf("estimates for %d threads, want %d", len(cal.EstimatedNs), len(trueSkew))
	}
	// Symmetric ping-pong paths: residual bounded by the TSC resolution
	// plus protocol jitter.
	if cal.MaxAbsResidual > 4*TSCResolutionNs {
		t.Errorf("max residual = %.1f ns, want within ~%d ns (resolution %d)",
			cal.MaxAbsResidual, 4*TSCResolutionNs, TSCResolutionNs)
	}
	// Sanity: a large skew must be recovered with the right sign/magnitude.
	if cal.EstimatedNs[4] < 180 || cal.EstimatedNs[4] > 300 {
		t.Errorf("thread 4 skew estimated %.1f ns, true 240", cal.EstimatedNs[4])
	}
}

func TestScheduleEffectOnTriad(t *testing.T) {
	// Figure 9a vs 9b: at 64 threads, compact filling packs 16 cores on 8
	// tiles (two quadrants in SNC4 -> half the EDCs), while fill-tiles
	// spreads over all 32 tiles and reaches every controller.
	o := quick()
	o.Iterations = 5
	cfg := knl.DefaultConfig()
	compact := MeasureMemBandwidth(cfg, o, KernelTriad, knl.MCDRAM, true, 64, knl.Compact)
	fill := MeasureMemBandwidth(cfg, o, KernelTriad, knl.MCDRAM, true, 64, knl.FillTiles)
	if compact.GBs >= fill.GBs {
		t.Errorf("compact (%.0f GB/s) should trail fill-tiles (%.0f GB/s) at 64 threads",
			compact.GBs, fill.GBs)
	}
	if compact.Cores >= fill.Cores {
		t.Errorf("compact uses %d cores, fill-tiles %d: schedule accounting wrong",
			compact.Cores, fill.Cores)
	}
	// At 256 threads both schedules cover the whole chip and converge.
	c256 := MeasureMemBandwidth(cfg, o, KernelTriad, knl.MCDRAM, true, 256, knl.Compact)
	f256 := MeasureMemBandwidth(cfg, o, KernelTriad, knl.MCDRAM, true, 256, knl.FillTiles)
	ratio := c256.GBs / f256.GBs
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("at 256 threads schedules should converge: compact %.0f vs fill %.0f",
			c256.GBs, f256.GBs)
	}
}

func TestRemoteSvsFDistinction(t *testing.T) {
	// Table I: "small differences (5-15%) between the S (shared) and F
	// (forward) state" — the two setups place the serving copy on
	// different tiles, so their medians differ but stay close.
	o := quick()
	got := MeasureCacheLatencies(knl.DefaultConfig(), o, 4)
	sMid := (got.RemoteS.Lo + got.RemoteS.Hi) / 2
	fMid := (got.RemoteF.Lo + got.RemoteF.Hi) / 2
	rel := (sMid - fMid) / fMid
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.2 {
		t.Errorf("S (%v) vs F (%v) differ by %.0f%%, want <= 20%%", sMid, fMid, 100*rel)
	}
	if got.RemoteS == got.RemoteF {
		t.Error("S and F bands identical: the distinct setups aren't distinct")
	}
}

func TestTableIIHybrid(t *testing.T) {
	o := quick()
	o.Iterations = 5
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.Hybrid)
	tab := MeasureTableII(cfg, o, []int{16}, []knl.Schedule{knl.FillTiles})
	// Hybrid populates both blocks: DDR traffic rides the half-sized side
	// cache; flat MCDRAM remains allocatable and fast.
	if tab.DRAM.Read <= 0 || tab.MCDRAM.Read <= 0 {
		t.Fatalf("hybrid blocks missing: %+v", tab)
	}
	if tab.MCDRAM.Read <= tab.DRAM.Read {
		t.Errorf("flat-MCDRAM read (%.0f) should beat side-cached DDR (%.0f)",
			tab.MCDRAM.Read, tab.DRAM.Read)
	}
	// Latency: flat MCDRAM partition keeps its higher-latency character.
	if tab.Latency.MCDRAM.Lo <= tab.Latency.DRAM.Lo-20 {
		t.Errorf("hybrid latencies implausible: DRAM %+v MCDRAM %+v",
			tab.Latency.DRAM, tab.Latency.MCDRAM)
	}
}
