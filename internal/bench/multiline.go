package bench

import (
	"knlcap/internal/cache"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
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
			m := po.acquire(cfg)
			vals := copyTimes(m, po, owner, st, lineCounts[i], false)
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
