package coll

import (
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/tune"
	"knlcap/internal/units"
)

// Allreduce extends the paper's collective set (its "flurry of
// applications" direction): every thread obtains the global sum. The
// model-tuned variant fuses the tuned reduce tree with the tuned broadcast
// tree — the capability model predicts the fused cost as
// ReduceCost(treeR) + BroadcastCost(treeB), and the same shared-structure/
// flag machinery implements it.
const Allreduce Op = 3

// tunedAllreduce composes the tuned reduce and broadcast.
type tunedAllreduce struct {
	red *tunedReduce
	bc  *tunedBcast
	// result[rank] is the sum each rank observed.
	result  []uint64
	threads int
}

func newTunedAllreduce(m *machine.Machine, cfg knl.Config, model *core.Model,
	g *group, p Params) *tunedAllreduce {
	return &tunedAllreduce{
		red:     newTunedReduce(m, cfg, model, g, p),
		bc:      newTunedBcast(m, cfg, model, g, p),
		result:  make([]uint64, len(g.places)),
		threads: len(g.places),
	}
}

func (ar *tunedAllreduce) emit(s *machine.Script, rank, seq int) {
	ar.red.emit(s, rank, seq)
	// The reduce root injects the sum into the broadcast payload word —
	// deferred to the reduce-completion instant, when rootSum is set.
	if rank == 0 {
		s.Do(func() { ar.bc.inject = ar.red.rootSum })
	}
	ar.bc.emit(s, rank, seq)
	s.Do(func() { ar.result[rank] = ar.bc.seen[rank] })
}

func (ar *tunedAllreduce) validate(m *machine.Machine, iters int) bool {
	n := uint64(ar.threads)
	want := n * (n + 1) / 2
	for _, v := range ar.result {
		if v != want {
			return false
		}
	}
	return true
}

// ompAllreduce is the centralized baseline: atomic accumulation plus a
// release broadcast of the result.
type ompAllreduce struct {
	g       *group
	acc     memmode.Buffer
	count   memmode.Buffer
	out     memmode.Buffer
	forkNs  float64
	result  []uint64
	threads int
}

func newOMPAllreduce(m *machine.Machine, cfg knl.Config, g *group, p Params) *ompAllreduce {
	return &ompAllreduce{
		g:       g,
		acc:     allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		count:   allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		out:     allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		forkNs:  p.OMPForkNs.Float(),
		result:  make([]uint64, len(g.places)),
		threads: len(g.places),
	}
}

func (oa *ompAllreduce) emit(s *machine.Script, rank, seq int) {
	s.Compute(oa.forkNs)
	s.AddWord(oa.acc, 0, uint64(rank+1), nil)
	s.AddWord(oa.count, 0, 1, nil)
	if rank == 0 {
		var sum uint64
		s.WaitWordGE(oa.count, 0, uint64(seq*oa.threads), nil)
		s.LoadWord(oa.acc, 0, func(got uint64) { sum = got })
		s.StoreWordFn(oa.out, 0, func() uint64 { return uint64(seq)*65536 + sum%65536 })
		s.Do(func() { oa.result[0] = sum % 65536 })
		return
	}
	s.WaitWordGE(oa.out, 0, uint64(seq)*65536, func(got uint64) {
		oa.result[rank] = got - uint64(seq)*65536
	})
}

func (oa *ompAllreduce) validate(m *machine.Machine, iters int) bool {
	n := uint64(oa.threads)
	want := (uint64(iters) * n * (n + 1) / 2) % 65536
	for _, v := range oa.result {
		if v != want {
			return false
		}
	}
	return true
}

// mpiAllreduce reduces up and broadcasts down binomial trees (the classic
// non-rabenseifner MPI_Allreduce for small payloads).
type mpiAllreduce struct {
	red *mpiReduce
	bc  *mpiBcast
	sum []uint64
}

func newMPIAllreduce(m *machine.Machine, cfg knl.Config, g *group, p Params) *mpiAllreduce {
	return &mpiAllreduce{
		red: newMPIReduce(m, cfg, g, p),
		bc:  newMPIBcast(m, cfg, g, p),
		sum: make([]uint64, len(g.places)),
	}
}

func (ma *mpiAllreduce) emit(s *machine.Script, rank, seq int) {
	ma.red.emit(s, rank, seq)
	if rank == 0 {
		s.Do(func() { ma.bc.inject = ma.red.rootSum })
	}
	ma.bc.emit(s, rank, seq)
	s.Do(func() { ma.sum[rank] = ma.bc.seen[rank] })
}

func (ma *mpiAllreduce) validate(m *machine.Machine, iters int) bool {
	n := uint64(len(ma.sum))
	want := n * (n + 1) / 2
	for _, v := range ma.sum {
		if v != want {
			return false
		}
	}
	return true
}

// PredictAllreduce gives the model cost of the fused tuned allreduce.
func PredictAllreduce(model *core.Model, tiles int) units.Nanos {
	return tune.Reduce(model, tiles).CostNs + tune.Broadcast(model, tiles).CostNs
}
