package msort

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"knlcap/internal/bitonic"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/stats"
)

func randomInput(n int, seed uint64) []int32 {
	rng := stats.NewRNG(seed)
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(rng.Uint64())
	}
	return v
}

func TestParallelSortCorrect(t *testing.T) {
	for _, n := range []int{0, 16, 256, 1024, 16 * 1000, 65536} {
		for _, threads := range []int{1, 2, 3, 4, 8, 17, 64} {
			v := randomInput(n, uint64(n*threads+1))
			want := append([]int32(nil), v...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			used := ParallelSort(v, threads)
			if !slices.IsSorted(v) {
				t.Fatalf("n=%d threads=%d: output not sorted", n, threads)
			}
			for i := range v {
				if v[i] != want[i] {
					t.Fatalf("n=%d threads=%d: content mismatch at %d", n, threads, i)
				}
			}
			if n > 0 && (used&(used-1) != 0 || used < 1) {
				t.Errorf("used threads %d not a power of two", used)
			}
		}
	}
}

func TestParallelSortProperty(t *testing.T) {
	f := func(raw []int32, tRaw uint8) bool {
		n := (len(raw) / bitonic.Width) * bitonic.Width
		v := append([]int32(nil), raw[:n]...)
		want := append([]int32(nil), v...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		ParallelSort(v, 1+int(tRaw)%16)
		for i := range v {
			if v[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParallelSortUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned length did not panic")
		}
	}()
	ParallelSort(make([]int32, 17), 2)
}

func TestEffectiveThreads(t *testing.T) {
	cases := []struct{ n, req, want int }{
		{1024, 1, 1}, {1024, 7, 4}, {1024, 8, 8}, {1024, 1000, 64},
		{16, 8, 1}, {32, 8, 2},
	}
	for _, c := range cases {
		if got := effectiveThreads(c.n, c.req); got != c.want {
			t.Errorf("effectiveThreads(%d,%d) = %d, want %d", c.n, c.req, got, c.want)
		}
	}
}

func TestChunkBoundsAligned(t *testing.T) {
	b := chunkBounds(16*10, 4)
	if b[0] != 0 || b[4] != 160 {
		t.Fatalf("bounds = %v", b)
	}
	for i := 0; i < 4; i++ {
		if (b[i+1]-b[i])%bitonic.Width != 0 || b[i+1] <= b[i] {
			t.Errorf("chunk %d = [%d,%d) misaligned or empty", i, b[i], b[i+1])
		}
	}
}

func TestSimulateBasics(t *testing.T) {
	cfg := knl.DefaultConfig()
	// 64 KB input: 1024 lines.
	d1 := Simulate(cfg, DefaultSimParams(1024, 1, knl.DDR))
	d8 := Simulate(cfg, DefaultSimParams(1024, 8, knl.DDR))
	if d1 <= 0 || d8 <= 0 {
		t.Fatal("non-positive simulated latency")
	}
	if d8 >= d1 {
		t.Errorf("8 threads (%v) not faster than 1 (%v) for 64 KB", d8, d1)
	}
}

func TestSimulateSmallInputOverheadDominates(t *testing.T) {
	// Figure 10a: for 1 KB, more threads make it slower.
	cfg := knl.DefaultConfig()
	d2 := Simulate(cfg, DefaultSimParams(16, 2, knl.DDR))
	d64 := Simulate(cfg, DefaultSimParams(16, 64, knl.DDR))
	if d64 <= d2 {
		t.Errorf("1 KB sort: 64 threads (%v) should be slower than 2 (%v)", d64, d2)
	}
}

func TestSimulateMCDRAMDoesNotHelp(t *testing.T) {
	// The paper's headline: the higher-bandwidth MCDRAM does not improve
	// the sort over DRAM.
	cfg := knl.DefaultConfig()
	lines := 16384 // 1 MB
	d := Simulate(cfg, DefaultSimParams(lines, 32, knl.DDR))
	mc := Simulate(cfg, DefaultSimParams(lines, 32, knl.MCDRAM))
	ratio := d.Float() / mc.Float()
	if ratio > 1.3 || ratio < 0.7 {
		t.Errorf("MCDRAM sort speedup = %.2fx, paper reports negligible (~1x)", ratio)
	}
}

func TestFitOverheadPositiveSlope(t *testing.T) {
	cfg := knl.DefaultConfig()
	oh := FitOverhead(cfg, core.Default(), knl.DDR, []int{1, 4, 16, 64})
	if oh.Beta <= 0 {
		t.Errorf("overhead slope = %v, want positive (more threads, more overhead)", oh.Beta)
	}
	if oh.Overhead(64) <= oh.Overhead(4) {
		t.Error("overhead must grow with threads")
	}
}

func TestFigure10Panel(t *testing.T) {
	cfg := knl.DefaultConfig()
	model := core.Default()
	oh := core.OverheadModel{Alpha: 500, Beta: 400}
	pts := Figure10(cfg, model, oh, 1024, knl.DDR, []int{1, 8, 64})
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.MeasuredNs <= 0 || p.MemBWNs <= 0 {
			t.Fatalf("bad point %+v", p)
		}
		if p.MemBWNs > p.MemLatNs {
			t.Errorf("threads=%d: BW model above latency model", p.Threads)
		}
		if p.FullBWNs < p.MemBWNs {
			t.Errorf("threads=%d: full model below memory model", p.Threads)
		}
	}
	// The cutoff should trip at high thread counts for this small input.
	if !pts[2].OverCutoff {
		t.Error("64 threads on 64 KB should exceed the 10% overhead cutoff")
	}
}

func TestSimulatedMeasuredWithinModelBand(t *testing.T) {
	// Key model-validation claim: for memory-bound sizes the measured cost
	// lies between (roughly) the BW-based and latency-based memory models,
	// once overhead is included.
	cfg := knl.DefaultConfig()
	model := core.Default()
	oh := FitOverhead(cfg, model, knl.DDR, []int{1, 4, 16, 64})
	lines := 32768 // 2 MB
	for _, tc := range []int{4, 16} {
		sp := DefaultSimParams(lines, tc, knl.DDR)
		measured := Simulate(cfg, sp)
		mp := core.DefaultSortParams(model, lines, tc, knl.DDR)
		lo := model.FullSortCost(mp, oh, true).Scale(0.4)
		hi := model.FullSortCost(mp, oh, false).Scale(2.5)
		if measured < lo || measured > hi {
			t.Errorf("threads=%d: measured %.0f outside band [%.0f, %.0f]",
				tc, measured, lo, hi)
		}
	}
}

func BenchmarkParallelSort1M(b *testing.B) {
	v := randomInput(1<<20, 42)
	scratch := make([]int32, len(v))
	b.SetBytes(int64(4 * len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, v)
		ParallelSort(scratch, 4)
	}
}
