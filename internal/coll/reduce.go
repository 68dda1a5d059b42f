package coll

import (
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/tune"
)

// tunedReduce is the model-tuned tree reduce: the DP-optimal tree of
// TLevReduce (the shape of Figure 1), with per-child slot lines in the
// parent's buffer (the "extra buffering to hold the data collected from the
// descendants"), value+flag in one line, and an intra-tile flat gather
// before the inter-tile phase.
type tunedReduce struct {
	g *group
	*treeIndex

	// slots[node]: one line per child of node, receiving (seq, partial).
	slots []memmode.Buffer
	// tileSlots[node]: one line per intra-tile follower.
	tileSlots []memmode.Buffer
	opNs      float64
	rootSum   uint64
}

func newTunedReduce(m *machine.Machine, cfg knl.Config, model *core.Model,
	g *group, p Params) *tunedReduce {
	tt := tune.Reduce(model, len(g.leaders))
	ti := indexTree(tt.Tree, len(g.leaders))
	tr := &tunedReduce{g: g, treeIndex: ti, opNs: model.ReduceOpNs.Float()}
	for node, lr := range g.leaders {
		pl := g.places[lr]
		slotLines := len(ti.children[node])
		if slotLines < 1 {
			slotLines = 1
		}
		tr.slots = append(tr.slots,
			allocFor(m, cfg, pl, p.BufKind, int64(slotLines)*knl.LineSize))
		followLines := len(g.follows[node])
		if followLines < 1 {
			followLines = 1
		}
		tr.tileSlots = append(tr.tileSlots,
			allocFor(m, cfg, pl, p.BufKind, int64(followLines)*knl.LineSize))
	}
	return tr
}

// encodeReduce packs (seq, partial) so pollers can threshold on seq.
func encodeReduce(seq int, partial uint64) uint64 {
	return uint64(seq)*65536 + partial
}

func (tr *tunedReduce) emit(s *machine.Script, rank, seq int) {
	node := tr.g.nodeOf[rank]
	contribution := uint64(rank + 1)

	if !tr.g.leader[rank] {
		// Intra-tile follower: deposit into the leader's tile slot.
		for i, fr := range tr.g.follows[node] {
			if fr == rank {
				s.StoreWord(tr.tileSlots[node], i, encodeReduce(seq, contribution))
			}
		}
		return
	}

	sum := contribution
	// Flat intra-tile gather (cheap polling, as the paper prescribes).
	for i := range tr.g.follows[node] {
		s.WaitWordGE(tr.tileSlots[node], i, uint64(seq)*65536, func(got uint64) {
			sum += got - uint64(seq)*65536
		})
		s.Compute(tr.opNs)
	}
	// Inter-tile gather from the children's slots.
	for i := range tr.children[node] {
		s.WaitWordGE(tr.slots[node], i, uint64(seq)*65536, func(got uint64) {
			sum += got - uint64(seq)*65536
		})
		s.Compute(tr.opNs)
	}
	if tr.parent[node] < 0 {
		s.Do(func() { tr.rootSum = sum })
		return
	}
	s.StoreWordFn(tr.slots[tr.parent[node]], tr.slot[node], func() uint64 {
		return encodeReduce(seq, sum)
	})
}

func (tr *tunedReduce) validate(m *machine.Machine, iters int) bool {
	return tr.rootSum == triangle(len(tr.g.places))
}

// ompReduce is the centralized baseline: every thread atomically adds its
// contribution to one accumulator line — n serialized RFOs on the same
// line, the pathological case of the contention model.
type ompReduce struct {
	g       *group
	acc     memmode.Buffer
	count   memmode.Buffer
	release memmode.Buffer
	forkNs  float64
	rootSum uint64
}

func newOMPReduce(m *machine.Machine, cfg knl.Config, g *group, p Params) *ompReduce {
	return &ompReduce{
		g:       g,
		acc:     allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		count:   allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		release: allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		forkNs:  p.OMPForkNs.Float(),
	}
}

func (or *ompReduce) emit(s *machine.Script, rank, seq int) {
	s.Compute(or.forkNs) // runtime dispatch
	s.AddWord(or.acc, 0, uint64(rank+1), nil)
	s.AddWord(or.count, 0, 1, nil)
	// An OpenMP `reduction` clause ends at the implicit barrier of the
	// construct: the root publishes completion and everyone waits.
	if rank == 0 {
		n := len(or.g.places)
		s.WaitWordGE(or.count, 0, uint64(seq*n), nil)
		s.LoadWord(or.acc, 0, func(got uint64) { or.rootSum = got })
		s.StoreWord(or.release, 0, uint64(seq))
		return
	}
	s.WaitWordGE(or.release, 0, uint64(seq), nil)
}

func (or *ompReduce) validate(m *machine.Machine, iters int) bool {
	return or.rootSum == uint64(iters)*triangle(len(or.g.places))
}
