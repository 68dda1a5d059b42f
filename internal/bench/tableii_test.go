package bench

import (
	"reflect"
	"runtime"
	"testing"

	"knlcap/internal/knl"
)

// tableIIQuick is the reduced Table II column of the tests below: SNC4-flat
// (eight latency points, both memory kinds), two thread counts, both
// schedules, short windows.
func tableIIQuick() (knl.Config, Options, []int, []knl.Schedule) {
	o := quick()
	o.Iterations = 4
	return knl.DefaultConfig(), o, []int{2, 8}, []knl.Schedule{knl.FillTiles, knl.Compact}
}

// freshTableII assembles the column MeasureTableII reports from per-point
// calls that each build a fresh machine (o carries no pool).
func freshTableII(cfg knl.Config, o Options, counts []int, scheds []knl.Schedule) TableII {
	out := TableII{Config: cfg, Latency: MemLatencies{Config: cfg}}
	var dr, mc []float64
	for c := 0; c < cfg.Cluster.Clusters(); c++ {
		dr = append(dr, memLatency(cfg, o, knl.DDR, c))
		mc = append(mc, memLatency(cfg, o, knl.MCDRAM, c))
	}
	out.Latency.DRAM, out.Latency.MCDRAM = RangeOf(dr), RangeOf(mc)
	for _, kind := range []knl.MemKind{knl.DDR, knl.MCDRAM} {
		best := func(k StreamKernel) float64 {
			var pts []MemBWPoint
			for _, sc := range scheds {
				for _, n := range counts {
					pts = append(pts, MeasureMemBandwidth(cfg, o, k, kind, true, n, sc))
				}
			}
			return maxMedian(pts).GBs
		}
		threads := 64
		if kind == knl.MCDRAM {
			threads = 128
		}
		blk := TableIIKind{
			CopyNT:     best(KernelCopy),
			StreamCopy: MeasureStreamPeak(cfg, o, KernelCopy, kind, threads, knl.FillTiles),
			Read:       best(KernelRead),
			Write:      best(KernelWrite),
			TriadNT:    best(KernelTriad),
			StreamTrd:  MeasureStreamPeak(cfg, o, KernelTriad, kind, threads, knl.FillTiles),
		}
		if kind == knl.DDR {
			out.DRAM = blk
		} else {
			out.MCDRAM = blk
		}
	}
	return out
}

// TestTableIIPooledMatchesFresh: the column's single fan-out runs every
// point on its worker's recycled machine, and by the Machine.Reset
// contract it must equal the column assembled from fresh machines.
func TestTableIIPooledMatchesFresh(t *testing.T) {
	cfg, o, counts, scheds := tableIIQuick()
	want := freshTableII(cfg, o, counts, scheds)
	for _, par := range []int{1, 3} {
		o.Parallel = par
		if got := MeasureTableII(cfg, o, counts, scheds); !reflect.DeepEqual(got, want) {
			t.Errorf("-parallel %d pooled column differs from fresh machines:\npooled: %+v\nfresh:  %+v",
				par, got, want)
		}
	}
}

// TestTableIIAllocBytes guards the pooling: a serial column takes one
// machine for its latency points and one for its bandwidth points, so the
// tag blocks and line tables its points touch are allocated once per
// column, not once per point. Built from a fresh machine per point, this
// column allocated 70.3 MB; pooled it allocates 25.2 MB.
func TestTableIIAllocBytes(t *testing.T) {
	const limit = 40 << 20
	cfg, o, counts, scheds := tableIIQuick()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MeasureTableII(cfg, o, counts, scheds)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("reduced Table II column allocates %d bytes", got)
	if got >= limit {
		t.Errorf("reduced Table II column allocates %d bytes, want < %d", got, limit)
	}
}
