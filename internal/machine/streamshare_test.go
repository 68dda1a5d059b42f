package machine

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

// TestSharedForwarderPortHalvesBandwidth checks the emergent port-sharing
// effect: two threads copying *disjoint* buffers that both live in the same
// owner tile's cache must split that tile's L2 port, roughly halving each
// copier's bandwidth (copies are port-bound; plain vector reads are
// latency-bound and would not show this).
func TestSharedForwarderPortHalvesBandwidth(t *testing.T) {
	run := func(readers int) float64 {
		m := noJitter(knl.DefaultConfig())
		const lines = 1024
		var worst float64
		for r := 0; r < readers; r++ {
			src := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
			dst := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
			m.Prime(src, 20, cache.Modified) // all sources in owner tile 10
			core := r * 4                    // distinct reader tiles 0, 2, 4...
			m.Prime(dst, core, cache.Modified)
			spawnScript(m, place(core), func(s *Script) {
				timed(m, s, func() { s.Op(copyOp(dst, src, false), nil) },
					func(d float64) { worst = max(worst, d) })
			})
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(lines*knl.LineSize) / worst // per-copier GB/s
	}
	one := run(1)
	two := run(2)
	if two > one*0.75 {
		t.Errorf("2 copiers get %.2f GB/s each vs %.2f solo: port sharing missing", two, one)
	}
	if one < 5.5 || one > 7.8 {
		t.Errorf("solo M copy = %.2f GB/s, want ~6.7", one)
	}
}

// TestStreamRangesCompose checks that range-wise streaming covers exactly
// the requested lines (states installed only there).
func TestStreamRangesCompose(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 64*knl.LineSize)
	runOne(t, m, place(0), func(s *Script) {
		s.ReadStreamRange(b, 16, 8, true)
	})
	for li := 0; li < 64; li++ {
		st := m.LineState(0, b.Line(li))
		inRange := li >= 16 && li < 24
		if inRange && st == cache.Invalid {
			t.Errorf("line %d in range but not cached", li)
		}
		if !inRange && st != cache.Invalid {
			t.Errorf("line %d outside range but cached (%v)", li, st)
		}
	}
}

// TestWriteStreamRangeDirtiesExactly checks cached write streams install
// Modified lines over exactly the requested range.
func TestWriteStreamRangeDirtiesExactly(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 32*knl.LineSize)
	runOne(t, m, place(0), func(s *Script) {
		s.Op(KernelOp{Kind: StreamWrite, Dst: b, DstFrom: 4, N: 4}, nil)
	})
	for li := 0; li < 32; li++ {
		st := m.LineState(0, b.Line(li))
		if li >= 4 && li < 8 {
			if st != cache.Modified {
				t.Errorf("line %d should be M, is %v", li, st)
			}
		} else if st != cache.Invalid {
			t.Errorf("line %d should be uncached, is %v", li, st)
		}
	}
}

// TestNTWriteStreamLeavesNothingCached checks NT streams bypass the
// hierarchy entirely.
func TestNTWriteStreamLeavesNothingCached(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 32*knl.LineSize)
	m.Prime(b, 10, cache.Shared) // pre-cached somewhere
	runOne(t, m, place(0), func(s *Script) {
		s.Op(writeOp(b, true), nil)
	})
	for tile := 0; tile < m.NumTiles(); tile++ {
		for li := 0; li < 32; li++ {
			if st := m.LineState(tile, b.Line(li)); st != cache.Invalid {
				t.Fatalf("tile %d line %d cached (%v) after NT stream", tile, li, st)
			}
		}
	}
}

// TestHyperthreadsShareIssuePort checks that two hyperthreads of one core
// streaming L1/L2-resident data contend on the core's issue port, while the
// same two threads on different cores do not — the compact-vs-scatter
// schedule effect of Figure 9.
func TestHyperthreadsShareIssuePort(t *testing.T) {
	run := func(sameCore bool) float64 {
		m := noJitter(knl.DefaultConfig())
		const lines = 256 // 16 KB: L1-resident after the first pass
		var worst float64
		for r := 0; r < 2; r++ {
			buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
			core, ht := 0, r
			if !sameCore {
				core, ht = r*2, 0
			}
			m.Prime(buf, core, cache.Exclusive)
			pl := knl.Place{Tile: core / knl.CoresPerTile, Core: core, HT: ht}
			spawnScript(m, pl, func(s *Script) {
				timed(m, s, func() {
					for it := 0; it < 8; it++ {
						s.Op(readOp(buf), nil) // L1 hits after warm-up
					}
				}, func(d float64) { worst = max(worst, d) })
			})
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return worst
	}
	shared := run(true)
	separate := run(false)
	if shared < separate*1.5 {
		t.Errorf("same-core HT streams (%.0f ns) should be ~2x separate-core (%.0f ns)",
			shared, separate)
	}
}

// TestKNLBeatsKNCSingleThread encodes the paper's generational comparison:
// "The main improvement is the single thread performance: KNL does not
// rely anymore on having more than one thread per core to hide memory
// access latency."
func TestKNLBeatsKNCSingleThread(t *testing.T) {
	cfg := knl.DefaultConfig()
	run := func(params Params, hts int) float64 {
		params.JitterFrac = 0
		m := NewWithParams(cfg, params)
		const lines = 1024
		var worst float64
		for h := 0; h < hts; h++ {
			buf := m.Alloc.MustAlloc(knl.DDR, 0, lines*knl.LineSize)
			spawnScript(m, knl.Place{Tile: 0, Core: 0, HT: h}, func(s *Script) {
				timed(m, s, func() { s.Op(readOp(buf), nil) },
					func(d float64) { worst = max(worst, d) })
			})
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(lines*knl.LineSize*hts) / worst // core-aggregate GB/s
	}
	knl1 := run(DefaultParams(), 1)
	knc1 := run(KNCLikeParams(), 1)
	if knl1 < 2.5*knc1 {
		t.Errorf("KNL single-thread (%.2f GB/s) should be >2.5x KNC-like (%.2f)", knl1, knc1)
	}
	// KNC needs hyperthreads to recover memory throughput; KNL much less so.
	knc4 := run(KNCLikeParams(), 4)
	knl4 := run(DefaultParams(), 4)
	kncGain := knc4 / knc1
	knlGain := knl4 / knl1
	if kncGain < 1.8 {
		t.Errorf("KNC-like should gain >1.8x from hyperthreads, got %.2fx", kncGain)
	}
	if knlGain > kncGain {
		t.Errorf("KNL (%.2fx) should depend less on hyperthreads than KNC (%.2fx)",
			knlGain, kncGain)
	}
}

// TestStatsReport checks the observability surface: after a contended run
// the busiest structure should be the owner's home CHA, and channel
// traffic should account for the memory lines touched.
func TestStatsReport(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	shared := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(shared, 0, cache.Modified)
	for i := 1; i <= 16; i++ {
		spawnScript(m, place(i*2), func(s *Script) { s.Load(shared, 0) })
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	stats := m.StatsReport()
	if len(stats) == 0 {
		t.Fatal("empty stats report")
	}
	if got := stats[0].Name; len(got) < 3 || got[:3] != "cha" {
		t.Errorf("busiest structure = %s, want the home CHA", got)
	}
	if stats[0].MaxQueue == 0 {
		t.Error("contended CHA should have queued requests")
	}
	m2 := noJitter(knl.DefaultConfig())
	b := m2.Alloc.MustAlloc(knl.MCDRAM, 0, 64*knl.LineSize)
	runOne(t, m2, place(0), func(s *Script) { s.Op(readOp(b), nil) })
	traffic := m2.ChannelTraffic()
	if traffic[knl.MCDRAM][0] != 64 {
		t.Errorf("MCDRAM reads = %d, want 64", traffic[knl.MCDRAM][0])
	}
	if m2.MeshUtilization() < 0 {
		t.Error("mesh utilization negative")
	}
}
