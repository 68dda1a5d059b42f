package bench

import (
	"knlcap/internal/exp"
	"knlcap/internal/knl"
)

// TableI aggregates every row of the paper's Table I for one cluster mode.
type TableI struct {
	Latency    CacheLatencies
	Bandwidth  CacheBandwidths
	Congestion CongestionResult
	Contention ContentionResult
}

// MeasureTableI regenerates one Table I column.
func MeasureTableI(cfg knl.Config, o Options) TableI {
	return TableI{
		Latency:    MeasureCacheLatencies(cfg, o, 0),
		Bandwidth:  MeasureCacheBandwidths(cfg, o, nil),
		Congestion: MeasureCongestion(cfg, o, 0),
		Contention: MeasureContention(cfg, o, nil),
	}
}

// TableIIKind is one memory technology's bandwidth block in Table II.
type TableIIKind struct {
	CopyNT     float64
	StreamCopy float64
	Read       float64
	Write      float64
	TriadNT    float64
	StreamTrd  float64
}

// TableII aggregates one Table II column (one cluster mode, one memory
// mode). In flat mode both kinds are populated; in cache mode only DRAM
// carries the (side-cached) numbers; hybrid mode populates both — DRAM
// through the half-sized side cache plus the flat MCDRAM partition.
type TableII struct {
	Config  knl.Config
	Latency MemLatencies
	DRAM    TableIIKind
	MCDRAM  TableIIKind // zero in cache mode
}

// MeasureTableII regenerates one Table II column. threadCounts/scheds
// bound the max-median sweep (nil for defaults). The column is one fan-out:
// every (kind, kernel, schedule, thread count) median and every STREAM peak
// is a point on its worker's pooled machine, and each bandwidth row is the
// maximum median over its kernel's points.
func MeasureTableII(cfg knl.Config, o Options, threadCounts []int, scheds []knl.Schedule) TableII {
	if len(threadCounts) == 0 {
		threadCounts = []int{16, 64, 128}
	}
	if len(scheds) == 0 {
		scheds = []knl.Schedule{knl.FillTiles, knl.Compact}
	}
	out := TableII{Config: cfg, Latency: MeasureMemLatencies(cfg, o)}
	kinds := []knl.MemKind{knl.DDR}
	if cfg.Memory == knl.Flat || cfg.Memory == knl.Hybrid {
		kinds = append(kinds, knl.MCDRAM)
	}
	// Per kind: each max-median kernel's sweep, then the two STREAM peaks.
	// The peaks come last because their 64 and 128 threads grow the pooled
	// machine the most; run early, they raise the heap every later point
	// allocates on top of (engine peak_rss_mb read +10% against +5%).
	kernels := []StreamKernel{KernelCopy, KernelRead, KernelWrite, KernelTriad} // StreamKernel order
	peaks := []StreamKernel{KernelCopy, KernelTriad}
	sweep := len(scheds) * len(threadCounts)
	nsweep := len(kernels) * sweep
	perKind := nsweep + len(peaks)
	pts := exp.Run(o.Parallel, len(kinds)*perKind, func(pool *exp.MachinePool, i int) MemBWPoint {
		po := o.withPool(pool)
		kind, j := kinds[i/perKind], i%perKind
		if j >= nsweep {
			threads := 64
			if kind == knl.MCDRAM {
				threads = 128
			}
			return MemBWPoint{GBs: MeasureStreamPeak(cfg, po, peaks[j-nsweep], kind, threads, knl.FillTiles)}
		}
		k, sp := kernels[j/sweep], j%sweep
		return MeasureMemBandwidth(cfg, po, k, kind, true,
			threadCounts[sp%len(threadCounts)], scheds[sp/len(threadCounts)])
	})
	for ki, kind := range kinds {
		at := pts[ki*perKind : (ki+1)*perKind]
		best := func(k StreamKernel) float64 {
			return maxMedian(at[int(k)*sweep : int(k+1)*sweep]).GBs
		}
		blk := TableIIKind{
			CopyNT:     best(KernelCopy),
			StreamCopy: at[nsweep].GBs,
			Read:       best(KernelRead),
			Write:      best(KernelWrite),
			TriadNT:    best(KernelTriad),
			StreamTrd:  at[nsweep+1].GBs,
		}
		if kind == knl.DDR {
			out.DRAM = blk
		} else {
			out.MCDRAM = blk
		}
	}
	return out
}
