package bench

import (
	"knlcap/internal/cache"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/stats"
)

// MultiLineFit is the paper's Section IV-A.4 model: the latency of copying
// an N-line message from a remote cache fits alpha + beta*N; beta^-1 is the
// asymptotic copy bandwidth and alpha the protocol startup.
type MultiLineFit struct {
	Config  knl.Config
	State   cache.State
	Lines   []int
	Medians []float64
	Alpha   float64 // ns
	Beta    float64 // ns per line
	R2      float64
}

// BytesPerSecAsymptote converts the fitted slope into the large-message
// copy bandwidth in GB/s.
func (f MultiLineFit) BytesPerSecAsymptote() float64 {
	if f.Beta <= 0 {
		return 0
	}
	return knl.LineSize / f.Beta
}

// MeasureMultiLine fits the alpha+beta*N latency model for copying N-line
// messages held by a remote core in the given state.
func MeasureMultiLine(cfg knl.Config, o Options, st cache.State, lineCounts []int) MultiLineFit {
	if len(lineCounts) == 0 {
		lineCounts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	out := MultiLineFit{Config: cfg, State: st, Lines: lineCounts}
	owner := knl.NumCores / 2
	key := o.KeyFor("multiline-fit", cfg).Int(int(st)).Ints(lineCounts).Key()
	out.Medians = exp.RunMemo(o.Parallel, o.Memo, key,
		len(lineCounts), func(pool *exp.MachinePool, i int) float64 {
			po := o.withPool(pool)
			n := lineCounts[i]
			m := po.acquire(cfg)
			src := m.Alloc.MustAlloc(knl.DDR, 0, int64(n)*knl.LineSize)
			dst := m.Alloc.MustAlloc(knl.DDR, 0, int64(n)*knl.LineSize)
			vals := make([]float64, 0, o.Iterations)
			runConverged(m, knl.Place{Tile: 0, Core: 0}, o.ConvergeAfter, o.Iterations,
				func() {
					m.Prime(src, owner, st)
					m.Prime(dst, 0, cache.Modified)
				},
				machine.KernelOp{Kind: machine.StreamCopy, Dst: dst, Src: src, N: n},
				func(elapsed float64) { vals = append(vals, elapsed) })
			if _, err := m.Run(); err != nil {
				panic(err)
			}
			po.release(m)
			return stats.Median(vals)
		})
	xs := make([]float64, len(lineCounts))
	for i, n := range lineCounts {
		xs[i] = float64(n)
	}
	if fit, err := stats.LinReg(xs, out.Medians); err == nil {
		out.Alpha, out.Beta, out.R2 = fit.Alpha, fit.Beta, fit.R2
	}
	return out
}
