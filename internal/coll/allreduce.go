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

// allreduce composes a reduce with a broadcast whose payload source is the
// reduce result; the tuned and MPI variants differ only in their parts.
type allreduce struct {
	red, bc iterRunner
	seen    []uint64 // the broadcast's per-rank observations
}

func (ar *allreduce) emit(s *machine.Script, rank, seq int) {
	ar.red.emit(s, rank, seq)
	ar.bc.emit(s, rank, seq)
}

func (ar *allreduce) validate(m *machine.Machine, iters int) bool {
	return allEqual(ar.seen, triangle(len(ar.seen)))
}

// newTunedAllreduce fuses the tuned reduce and broadcast.
func newTunedAllreduce(m *machine.Machine, cfg knl.Config, model *core.Model,
	g *group, p Params) *allreduce {
	red := newTunedReduce(m, cfg, model, g, p)
	bc := newTunedBcast(m, cfg, model, g, p, func(int) uint64 { return red.rootSum })
	return &allreduce{red: red, bc: bc, seen: bc.seen}
}

// ompAllreduce is the centralized baseline: atomic accumulation plus a
// release broadcast of the result.
type ompAllreduce struct {
	acc     memmode.Buffer
	count   memmode.Buffer
	out     memmode.Buffer
	forkNs  float64
	result  []uint64
	threads int
}

func newOMPAllreduce(m *machine.Machine, cfg knl.Config, g *group, p Params) *ompAllreduce {
	return &ompAllreduce{
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
	return allEqual(oa.result, uint64(iters)*triangle(oa.threads)%65536)
}

// newMPIAllreduce reduces up and broadcasts down binomial trees (the
// classic non-rabenseifner MPI_Allreduce for small payloads).
func newMPIAllreduce(m *machine.Machine, cfg knl.Config, g *group, p Params) *allreduce {
	red := newMPIReduce(m, cfg, g, p)
	bc := newMPIBcast(m, cfg, g, p, func(int) uint64 { return red.rootSum })
	return &allreduce{red: red, bc: bc, seen: bc.seen}
}

// PredictAllreduce gives the model cost of the fused tuned allreduce.
func PredictAllreduce(model *core.Model, tiles int) units.Nanos {
	return tune.Reduce(model, tiles).CostNs + tune.Broadcast(model, tiles).CostNs
}
