package coll

import (
	"knlcap/internal/bench"
	"knlcap/internal/core"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
)

// FigurePoint groups the three algorithms at one thread count — one x-axis
// position of Figures 6, 7 and 8.
type FigurePoint struct {
	Threads int
	Tuned   Result
	OMP     Result
	MPI     Result
}

// SpeedupOMP returns median(OMP)/median(tuned).
func (p FigurePoint) SpeedupOMP() float64 {
	return p.OMP.Summary.Med / p.Tuned.Summary.Med
}

// SpeedupMPI returns median(MPI)/median(tuned).
func (p FigurePoint) SpeedupMPI() float64 {
	return p.MPI.Summary.Med / p.Tuned.Summary.Med
}

// MeasureFigure regenerates one of Figures 6-8: the collective op across
// thread counts for one schedule, measuring the tuned algorithm and both
// baselines on identical machines.
func MeasureFigure(cfg knl.Config, model *core.Model, o bench.Options, op Op,
	sched knl.Schedule, counts []int) []FigurePoint {
	if len(counts) == 0 {
		counts = []int{2, 4, 8, 16, 32, 64}
	}
	// Each (thread count, algorithm) measurement is one point on its
	// worker's pooled machine; fan the 3*len(counts) points out and
	// reassemble per-count triples.
	// The memo key covers the model because the tuned algorithm's shape (and
	// its min-max envelope) is derived from the capability parameters.
	algs := []Algorithm{Tuned, OMP, MPI}
	key := model.FoldKey(o.KeyFor("coll-figure", cfg)).
		Int(int(op)).Int(int(sched)).Ints(counts).Key()
	flat := exp.RunMemo(o.Parallel, o.Memo, key,
		len(counts)*len(algs), func(pool *exp.MachinePool, i int) Result {
			p := DefaultParams(counts[i/len(algs)], sched)
			return measure(pool, cfg, model, o, op, algs[i%len(algs)], p)
		})
	out := make([]FigurePoint, len(counts))
	for ci, n := range counts {
		out[ci] = FigurePoint{
			Threads: n,
			Tuned:   flat[ci*len(algs)],
			OMP:     flat[ci*len(algs)+1],
			MPI:     flat[ci*len(algs)+2],
		}
	}
	return out
}

// MaxSpeedups reduces a figure series to the headline numbers the paper
// reports ("up to 7x over OpenMP and 24x over MPI" for the barrier).
func MaxSpeedups(pts []FigurePoint) (omp, mpi float64) {
	for _, p := range pts {
		if s := p.SpeedupOMP(); s > omp {
			omp = s
		}
		if s := p.SpeedupMPI(); s > mpi {
			mpi = s
		}
	}
	return omp, mpi
}
