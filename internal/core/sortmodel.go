package core

import (
	"math"

	"knlcap/internal/knl"
	"knlcap/internal/units"
)

// SortParams describe one parallel merge-sort run for the memory-access
// model of Section V-B (Equations 3-5).
type SortParams struct {
	// TotalLines is the input size in cache lines (16 int32 per line).
	TotalLines units.Lines
	// Threads is the number of sorting threads.
	Threads int
	// Kind is where the ping-pong buffers live (DDR or MCDRAM).
	Kind knl.MemKind
	// L1Lines / L2Lines are the per-thread output-list capacities that
	// still fit in L1 / L2 (the paper: "depends on how many threads are
	// running in the same core or tile"). The ping-pong scheme halves the
	// usable capacity.
	L1Lines, L2Lines units.Lines
	// BitonicNsPerLine is the compute cost of pushing one line through the
	// width-16 bitonic merge network (AVX-512 instruction count / issue
	// rate).
	BitonicNsPerLine units.Nanos
	// SyncNs is the flag synchronization between dependent merges
	// (RL + RR in the paper).
	SyncNs units.Nanos
}

// DefaultSortParams fills the capacity and compute parameters for a run.
func DefaultSortParams(m *Model, totalLines, threads int, kind knl.MemKind) SortParams {
	return SortParams{
		TotalLines:       units.Lines(totalLines),
		Threads:          threads,
		Kind:             kind,
		L1Lines:          knl.L1Capacity.Lines(knl.LineBytes).Div(2), // ping-pong halves it
		L2Lines:          knl.L2Capacity.Lines(knl.LineBytes).Div(2).Div(knl.CoresPerTile),
		BitonicNsPerLine: 6,
		SyncNs:           m.RL + m.RR,
	}
}

// costMem returns the per-line memory access cost: the latency variant
// (worst case: interleaved reads from two unordered input lists defeat
// prefetching) or the bandwidth variant (best case: streaming at the
// achievable aggregate bandwidth shared by the active threads).
func (m *Model) costMem(p SortParams, activeThreads int, useBW bool) units.Nanos {
	if !useBW {
		return m.MemLatency(p.Kind)
	}
	bw := m.AchievableBW(p.Kind, activeThreads)
	if bw <= 0 {
		return m.MemLatency(p.Kind)
	}
	// Per-line time for one thread when `activeThreads` share the
	// aggregate: the line's bytes, multiplied by the sharing factor,
	// streamed at the achievable bandwidth.
	return knl.LineBytes.Scale(float64(activeThreads)).TransferNanos(bw)
}

func log2i(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log2(float64(n))
}

// sortLocalCost evaluates Equations 3-5 for one thread sorting n lines:
//
//	CL1(n)  = [log2(n)-1]*2n*costL1 + 2n*costmem            (3)
//	CL2(n)  = (n/nL1)*CL1(nL1) + [log2 n - log2 nL1]*2n*costL2   (4)
//	Cmem(n) = (n/nL2)*CL2(nL2) + [log2 n - log2 nL2]*2n*costmem  (5)
//
// plus the bitonic network compute for every produced line of every stage.
// The per-line costs carry units.Nanos; the stage counts and line counts
// are the dimensionless factors they scale by.
func (m *Model) sortLocalCost(p SortParams, n int, activeThreads int, useBW bool) units.Nanos {
	cm := m.costMem(p, activeThreads, useBW)
	costL1 := m.RL
	costL2 := m.RTileSF
	nL1 := int(p.L1Lines.Int())
	nL2 := int(p.L2Lines.Int())
	compute := p.BitonicNsPerLine.Scale(float64(n)).Scale(log2i(n) + 1)

	cl1 := func(n int) units.Nanos {
		stages := log2i(n) - 1
		if stages < 0 {
			stages = 0
		}
		return costL1.Scale(stages*2*float64(n)) + cm.Scale(2*float64(n))
	}
	if n <= nL1 {
		return cl1(n) + compute
	}
	cl2 := func(n int) units.Nanos {
		return cl1(nL1).Scale(float64(n)/float64(nL1)) +
			costL2.Scale((log2i(n)-log2i(nL1))*2*float64(n))
	}
	if n <= nL2 {
		return cl2(n) + compute
	}
	return cl2(nL2).Scale(float64(n)/float64(nL2)) +
		cm.Scale((log2i(n)-log2i(nL2))*2*float64(n)) + compute
}

// SortCost predicts the total latency of the parallel merge sort:
// each thread sorts TotalLines/Threads lines locally, then log2(Threads)
// merge stages follow in which the number of active threads halves
// (paper: "Then, the number of threads is halved until only one thread is
// working"). useBW selects the bandwidth-based best case; false gives the
// latency-based worst case.
func (m *Model) SortCost(p SortParams, useBW bool) units.Nanos {
	totalLines := int(p.TotalLines.Int())
	if p.Threads < 1 || totalLines < 1 {
		return 0
	}
	nL1 := int(p.L1Lines.Int())
	nL2 := int(p.L2Lines.Int())
	perThread := totalLines / p.Threads
	if perThread < 1 {
		perThread = 1
	}
	total := m.sortLocalCost(p, perThread, p.Threads, useBW)

	// Parallel merge tree: stage s has Threads/2^s mergers, each producing
	// output lists of perThread*2^s lines.
	active := p.Threads / 2
	out := perThread * 2
	for active >= 1 && out <= totalLines {
		cm := m.costMem(p, max(active, 1), useBW)
		costPerLine := cm.Scale(2) // n reads + n writes
		if out <= nL1 {
			costPerLine = m.RL.Scale(2)
		} else if out <= nL2 {
			costPerLine = m.RTileSF.Scale(2)
		}
		total += costPerLine.Scale(float64(out)) +
			p.BitonicNsPerLine.Scale(float64(out)) + p.SyncNs
		if active == 1 {
			break
		}
		active /= 2
		out *= 2
	}
	return total
}

// SortEnvelope returns the [bandwidth-based, latency-based] prediction band
// of the memory model (Figure 10's "Mem. model BW" and "Mem. model Lat."
// curves).
func (m *Model) SortEnvelope(p SortParams) (bwBased, latBased units.Nanos) {
	return m.SortCost(p, true), m.SortCost(p, false)
}

// OverheadModel is the linear overhead model of Section V-B.2: fitted to
// 1 KB sorts after subtracting the memory model, then applied to all sizes.
// Both coefficients are times (Beta is ns per thread).
type OverheadModel struct {
	Alpha, Beta units.Nanos // overhead(threads) = Alpha + Beta*threads
}

// Overhead evaluates the fitted overhead for a thread count.
func (o OverheadModel) Overhead(threads int) units.Nanos {
	v := o.Alpha + o.Beta.Scale(float64(threads))
	if v < 0 {
		return 0
	}
	return v
}

// FullSortCost combines the memory model with the overhead model (Figure
// 10's "Full model" curves).
func (m *Model) FullSortCost(p SortParams, o OverheadModel, useBW bool) units.Nanos {
	return m.SortCost(p, useBW) + o.Overhead(p.Threads)
}

// EfficiencyCutoff reports whether the overhead exceeds 10% of the memory
// model — the paper's vertical line marking where the implementation stops
// being memory-bound.
func (m *Model) EfficiencyCutoff(p SortParams, o OverheadModel) bool {
	mem := m.SortCost(p, true)
	return o.Overhead(p.Threads) > mem.Scale(0.1)
}
