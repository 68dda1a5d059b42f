package msort

import (
	"math"

	"knlcap/internal/core"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/memo"
	"knlcap/internal/stats"
	"knlcap/internal/units"
)

// SimParams configure a simulated sort run (the "measured" curves of
// Figure 10).
type SimParams struct {
	// TotalLines is the input size in cache lines.
	TotalLines int
	// Threads is the requested thread count (rounded to a power of two).
	Threads int
	// Kind places the ping-pong buffers (the paper's DRAM-vs-MCDRAM study).
	Kind knl.MemKind
	// Schedule pins threads (the paper's Figure 10 uses compact filling).
	Schedule knl.Schedule
	// BitonicNsPerLine is the compute cost of one network application.
	BitonicNsPerLine units.Nanos
	// LevelOverheadNs models per-merge-task software overhead (recursion,
	// task dispatch, false sharing) paid by each active thread per level —
	// the source of the paper's overhead-dominated regime at small sizes.
	LevelOverheadNs units.Nanos
}

// DefaultSimParams returns the Figure 10 configuration.
func DefaultSimParams(totalLines, threads int, kind knl.MemKind) SimParams {
	return SimParams{
		TotalLines:       totalLines,
		Threads:          threads,
		Kind:             kind,
		Schedule:         knl.Compact,
		BitonicNsPerLine: 6,
		LevelOverheadNs:  350,
	}
}

// Simulate replays the parallel merge sort's memory traffic on a fresh
// simulated machine and returns the completion time. Each thread runs as
// a step kernel (see sortPlan.program).
func Simulate(cfg knl.Config, p SimParams) units.Nanos {
	return simulate(nil, cfg, p)
}

// simulate is Simulate on a machine from pool (nil builds a fresh one),
// returned to the pool once the sort has completed. The machine runs
// machine.New's default protocol constants.
func simulate(pool *exp.MachinePool, cfg knl.Config, p SimParams) units.Nanos {
	m := pool.Get(cfg, machine.DefaultParams(), cfg.YieldSeed)
	threads := effectiveThreads(p.TotalLines*16, p.Threads)
	places := knl.Pin(p.Schedule, m.NumTiles(), threads)

	kind := p.Kind
	if cfg.Memory != knl.Flat && kind == knl.MCDRAM {
		kind = knl.DDR
	}
	chunk := p.TotalLines / threads
	if chunk < 1 {
		chunk = 1
	}
	maxStages := int(math.Log2(float64(threads))) + 2
	plan := sortPlan{
		SimParams: p,
		threads:   threads,
		chunk:     chunk,
		levels:    int(math.Log2(float64(chunk))) + 1,
		maxStages: maxStages,
		ping:      m.Alloc.MustAlloc(kind, 0, int64(p.TotalLines)*knl.LineSize),
		pong:      m.Alloc.MustAlloc(kind, 0, int64(p.TotalLines)*knl.LineSize),
		// Per-thread, per-stage completion flags.
		flags: m.Alloc.MustAlloc(knl.DDR, 0, int64(threads*maxStages)*knl.LineSize),
	}

	var finish float64
	for r, pl := range places {
		m.SpawnKernel(pl, plan.program(r, &finish))
	}
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	pool.Put(m)
	return units.Nanos(finish)
}

// sortPlan is one Simulate run's fixed layout: the ping-pong buffers, the
// flag array, and how the input splits over the threads.
type sortPlan struct {
	SimParams
	threads, chunk, levels, maxStages int
	ping, pong, flags                 memmode.Buffer
}

// maxStepOps is the most operations one step of a thread emits (a merge
// stage).
const maxStepOps = 6

// program returns thread r's kernel program. The thread's operation
// sequence depends only on r and the plan (flag waits delay it, never
// change it), so the program keeps only its position in the sequence and
// rebuilds the current step to issue the next operation. When the thread
// retires, it raises *finish to the instant its last operation completed.
func (s *sortPlan) program(r int, finish *float64) machine.Program {
	step, i := 0, 0
	return func(now float64, _ uint64) (machine.KernelOp, bool) {
		var buf [maxStepOps]machine.KernelOp
		ops := s.appendStep(buf[:0], r, step)
		if i == len(ops) {
			// Every step before retirement issues at least one operation.
			step, i = step+1, 0
			ops = s.appendStep(buf[:0], r, step)
		}
		if len(ops) == 0 {
			*finish = max(*finish, now)
			return machine.KernelOp{}, false
		}
		i++
		return ops[i-1], true
	}
}

// appendStep appends the operations of thread r's step to ops: steps
// below s.levels are the local sort's merge levels, later ones the merge
// tree's stages. It appends nothing once the thread has retired.
func (s *sortPlan) appendStep(ops []machine.KernelOp, r, step int) []machine.KernelOp {
	compute := func(d units.Nanos) {
		ops = append(ops, machine.KernelOp{Kind: machine.KernelCompute, Dur: d.Float()})
	}
	flag := func(kind machine.KernelOpKind, rank, stage int) {
		ops = append(ops, machine.KernelOp{Kind: kind, B: s.flags, Li: rank*s.maxStages + stage, Val: 1})
	}
	// pass reads span lines of the current buffer and writes them to the
	// other, then runs the bitonic network over them. The buffers swap
	// roles every step.
	lo := r * s.chunk
	pass := func(span int) {
		cur, other := s.ping, s.pong
		if step%2 == 1 {
			cur, other = other, cur
		}
		ops = append(ops,
			machine.KernelOp{Kind: machine.StreamRead, Src: cur, SrcFrom: lo, N: span, Vector: true},
			machine.KernelOp{Kind: machine.StreamWrite, Dst: other, DstFrom: lo, N: span})
		compute(s.BitonicNsPerLine.Scale(float64(span)))
	}

	if step < s.levels {
		// Phase 1: local sort. One pass per merge level over the
		// thread's chunk.
		compute(s.LevelOverheadNs)
		pass(s.chunk)
		if step == s.levels-1 {
			flag(machine.KernelStoreWord, r, 0)
		}
		return ops
	}

	// Phase 2: merge tree; active threads halve per stage.
	stage := step - s.levels + 1
	width := 1 << (stage - 1)
	switch {
	case width >= s.threads:
	case r%(2*width) == 0:
		flag(machine.KernelWaitWordGE, r+width, stage-1)
		compute(s.LevelOverheadNs)
		pass(min(s.chunk<<stage, s.TotalLines-lo))
		flag(machine.KernelStoreWord, r, stage)
	case r%(2*width) == width:
		// This thread retires after handing its chunk over.
		flag(machine.KernelStoreWord, r, stage-1)
	}
	return ops
}

// FitOverhead fits the paper's overhead model: simulate 1 KB sorts across
// thread counts, subtract the bandwidth-variant memory model, and regress
// the residual linearly in the thread count (Section V-B.2).
func FitOverhead(cfg knl.Config, model *core.Model, kind knl.MemKind,
	threadCounts []int) core.OverheadModel {
	return FitOverheadMemo(cfg, model, kind, threadCounts, 1, nil)
}

// FitOverheadMemo is FitOverhead with the thread-count points fanned over
// `parallel` workers (each point sorts on its worker's pooled machine; the
// fit is identical at every setting) and backed by a result cache: the fit
// is returned from the cache when the configuration, model, and sweep are
// unchanged, and stored after a cold run. A nil cache always simulates.
func FitOverheadMemo(cfg knl.Config, model *core.Model, kind knl.MemKind,
	threadCounts []int, parallel int, c *memo.Cache) core.OverheadModel {
	// Simulate runs on machine.New's default protocol constants, so they
	// are part of the content address (the memokey analyzer checks this).
	key := machine.DefaultParams().FoldKey(
		model.FoldKey(cfg.FoldKey(memo.NewKey("msort-fit-overhead")))).
		Int(int(kind)).Ints(threadCounts).Key()
	if v, ok := memo.Lookup[core.OverheadModel](c, key); ok {
		return v
	}
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8, 16, 32, 64}
	}
	const lines = 16 // 1 KB of int32
	xs := make([]float64, len(threadCounts))
	for i, tc := range threadCounts {
		xs[i] = float64(tc)
	}
	ys := exp.Run(parallel, len(threadCounts), func(pool *exp.MachinePool, i int) float64 {
		tc := threadCounts[i]
		sp := DefaultSimParams(lines, tc, kind)
		measured := simulate(pool, cfg, sp)
		mp := core.DefaultSortParams(model, lines, effectiveThreads(lines*16, tc), kind)
		mem := model.SortCost(mp, true)
		resid := measured - mem
		if resid < 0 {
			resid = 0
		}
		return resid.Float()
	})
	var oh core.OverheadModel
	if fit, err := stats.LinReg(xs, ys); err == nil {
		nf := fit.Nanos()
		oh = core.OverheadModel{Alpha: nf.Alpha, Beta: nf.Beta}
	}
	memo.Store(c, key, oh)
	return oh
}

// Figure10Point is one x-position of one Figure 10 panel.
type Figure10Point struct {
	Threads    int
	MeasuredNs units.Nanos
	MemLatNs   units.Nanos // memory model, latency variant
	MemBWNs    units.Nanos // memory model, bandwidth variant
	FullLatNs  units.Nanos // + overhead model
	FullBWNs   units.Nanos
	OverCutoff bool // overhead > 10% of the memory model
}

// Figure10 regenerates one panel: the simulated sort and the four model
// curves across thread counts for a given input size and memory kind.
func Figure10(cfg knl.Config, model *core.Model, oh core.OverheadModel,
	totalLines int, kind knl.MemKind, threadCounts []int) []Figure10Point {
	return Figure10Memo(cfg, model, oh, totalLines, kind, threadCounts, 1, nil)
}

// Figure10Memo is Figure10 with the thread-count points fanned over
// `parallel` workers and backed by a result cache. The overhead model is
// part of the key — the full-cost curves are a function of it.
func Figure10Memo(cfg knl.Config, model *core.Model, oh core.OverheadModel,
	totalLines int, kind knl.MemKind, threadCounts []int, parallel int,
	c *memo.Cache) []Figure10Point {
	key := machine.DefaultParams().FoldKey(
		model.FoldKey(cfg.FoldKey(memo.NewKey("msort-figure10")))).
		Float(oh.Alpha.Float()).Float(oh.Beta.Float()).
		Int(totalLines).Int(int(kind)).Ints(threadCounts).Key()
	if v, ok := memo.Lookup[[]Figure10Point](c, key); ok {
		return v
	}
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	pts := exp.Run(parallel, len(threadCounts), func(pool *exp.MachinePool, i int) Figure10Point {
		tc := threadCounts[i]
		eff := effectiveThreads(totalLines*16, tc)
		sp := DefaultSimParams(totalLines, tc, kind)
		mp := core.DefaultSortParams(model, totalLines, eff, kind)
		return Figure10Point{
			Threads:    tc,
			MeasuredNs: simulate(pool, cfg, sp),
			MemLatNs:   model.SortCost(mp, false),
			MemBWNs:    model.SortCost(mp, true),
			FullLatNs:  model.FullSortCost(mp, oh, false),
			FullBWNs:   model.FullSortCost(mp, oh, true),
			OverCutoff: model.EfficiencyCutoff(mp, oh),
		}
	})
	memo.Store(c, key, pts)
	return pts
}
