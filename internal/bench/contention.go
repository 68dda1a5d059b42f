package bench

import (
	"knlcap/internal/cache"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
)

// ContentionResult is the Table I contention row: the linear model
// T_C(N) = Alpha + Beta*N fitted over the measured per-N medians.
type ContentionResult struct {
	Config  knl.Config
	Ns      []int
	Medians []float64
	Alpha   float64
	Beta    float64
	R2      float64
}

// MeasureContention runs the 1:N contention benchmark (Section IV-A.2):
// one thread on core 0 owns a one-line buffer in Modified state; N other
// threads (one per core, fill-tiles schedule as in the reported table)
// simultaneously read it and copy it into local buffers. The maximum
// duration per iteration is recorded; the median over iterations is the
// T_C(N) estimate.
func MeasureContention(cfg knl.Config, o Options, ns []int) ContentionResult {
	if len(ns) == 0 {
		ns = []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 63}
	}
	res := ContentionResult{Config: cfg, Ns: ns}
	key := o.KeyFor("table1-contention", cfg).Ints(ns).Key()
	res.Medians = exp.RunMemo(o.Parallel, o.Memo, key, len(ns),
		func(pool *exp.MachinePool, i int) float64 {
			po := o
			po.pool = pool
			n := ns[i]
			m := po.acquire(cfg)
			shared := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
			// Accessors start at core 2 (skip the owner tile).
			all := placesFor(knl.FillTiles, knl.NumCores)
			var places []knl.Place
			for _, pl := range all {
				if pl.Tile != 0 {
					places = append(places, pl)
				}
				if len(places) == n {
					break
				}
			}
			locals := make([]memmode.Buffer, len(places))
			for i := range locals {
				locals[i] = m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
			}
			setup := func(iter int) { m.Prime(shared, 0, cache.Modified) }
			maxes := RunWindows(m, places, po, setup, func(rank, iter int) machine.Program {
				return OpsProgram(
					machine.KernelOp{Kind: machine.KernelLoad, B: shared},
					machine.KernelOp{Kind: machine.KernelStore, B: locals[rank]},
				)
			})
			po.release(m)
			return stats.Median(maxes)
		})
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	fit, err := stats.LinReg(xs, res.Medians)
	if err == nil {
		res.Alpha, res.Beta, res.R2 = fit.Alpha, fit.Beta, fit.R2
	}
	return res
}

// CongestionResult is the Table I congestion row: the ratio of pair
// latency under P simultaneous pairs versus a single pair ("None" in the
// paper corresponds to a ratio of ~1).
type CongestionResult struct {
	Config     knl.Config
	SinglePair float64
	ManyPairs  float64
	Ratio      float64
	// MaxRingUtilization is the busiest ring direction during the
	// many-pairs run — the structural reason the ratio is ~1 ("None"):
	// P2P traffic leaves the rings nearly idle.
	MaxRingUtilization float64
}

// MeasureCongestion runs the ping-pong congestion benchmark (Section
// IV-A.3): pairs of threads on distinct tile pairs ping-pong a private
// line; the latency with many simultaneous pairs is compared to one pair.
func MeasureCongestion(cfg knl.Config, o Options, pairs int) CongestionResult {
	if pairs <= 0 {
		pairs = 12
	}
	run := func(numPairs int) (float64, float64) {
		m := o.acquire(cfg)
		type pair struct {
			a, b knl.Place
			buf  memmode.Buffer
		}
		var ps []pair
		for i := 0; i < numPairs; i++ {
			ta := (2 * i) % knl.ActiveTiles
			tb := (2*i + 1) % knl.ActiveTiles
			ps = append(ps, pair{
				a:   knl.Place{Tile: ta, Core: ta * 2},
				b:   knl.Place{Tile: tb, Core: tb * 2},
				buf: m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize),
			})
		}
		const rounds = 16
		var medians []float64
		for pi, pr := range ps {
			pi := pi
			flag := pr.buf
			// Each side of the ping-pong is a spawned step kernel: the
			// master alternates flag stores with signal-watched waits, the
			// peer mirrors it one step out of phase.
			aStep, bStep := 0, 0
			var start float64
			m.SpawnKernel(pr.a, func(now float64, _ uint64) (machine.KernelOp, bool) {
				if aStep == 0 {
					start = now
				}
				if aStep == 2*rounds {
					if pi == 0 {
						medians = append(medians, (now-start)/(2*rounds))
					}
					return machine.KernelOp{}, false
				}
				r := aStep / 2
				op := machine.KernelOp{Kind: machine.KernelStoreWord, B: flag, Val: uint64(2*r + 1)}
				if aStep%2 == 1 {
					op = machine.KernelOp{Kind: machine.KernelWaitWordGE, B: flag, Val: uint64(2*r + 2)}
				}
				aStep++
				return op, true
			})
			m.SpawnKernel(pr.b, func(now float64, _ uint64) (machine.KernelOp, bool) {
				if bStep == 2*rounds {
					return machine.KernelOp{}, false
				}
				r := bStep / 2
				op := machine.KernelOp{Kind: machine.KernelWaitWordGE, B: flag, Val: uint64(2*r + 1)}
				if bStep%2 == 1 {
					op = machine.KernelOp{Kind: machine.KernelStoreWord, B: flag, Val: uint64(2*r + 2)}
				}
				bStep++
				return op, true
			})
		}
		if _, err := m.Run(); err != nil {
			panic(err)
		}
		med, util := stats.Median(medians), m.Fabric.Utilization()
		o.release(m)
		return med, util
	}
	type pt struct{ Med, Util float64 }
	numPairs := []int{1, pairs}
	key := o.KeyFor("table1-congestion", cfg).Int(pairs).Key()
	res := exp.RunMemo(o.Parallel, o.Memo, key,
		len(numPairs), func(_ *exp.MachinePool, i int) pt {
			med, util := run(numPairs[i])
			return pt{med, util}
		})
	single, many := res[0].Med, res[1].Med
	maxUtil := res[0].Util
	if res[1].Util > maxUtil {
		maxUtil = res[1].Util
	}
	return CongestionResult{
		Config:             cfg,
		SinglePair:         single,
		ManyPairs:          many,
		Ratio:              many / single,
		MaxRingUtilization: maxUtil,
	}
}
