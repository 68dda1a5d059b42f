package coll

import (
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/tune"
)

// tunedBarrier is the model-tuned m-way dissemination barrier (Equation 2):
// in each of r rounds every thread publishes its round flag and waits for m
// peers at exponentially growing distances. Global dissemination — no
// intra-tile staging — per the paper's finding that the extra stages don't
// pay off.
type tunedBarrier struct {
	g     *group
	mWay  int
	round int
	flags []memmode.Buffer // per rank: one line per round
}

func newTunedBarrier(m *machine.Machine, cfg knl.Config, model *core.Model,
	g *group, p Params) *tunedBarrier {
	b := tune.Barrier(model, p.Threads)
	tb := &tunedBarrier{g: g, mWay: b.M, round: b.Rounds}
	for _, pl := range g.places {
		tb.flags = append(tb.flags,
			allocFor(m, cfg, pl, p.BufKind, int64(b.Rounds+1)*knl.LineSize))
	}
	return tb
}

func (tb *tunedBarrier) emit(s *machine.Script, rank, seq int) {
	n := len(tb.g.places)
	span := 1
	for r := 0; r < tb.round; r++ {
		s.StoreWord(tb.flags[rank], r, uint64(seq))
		for j := 1; j <= tb.mWay; j++ {
			partner := (rank + j*span) % n
			if partner == rank {
				continue
			}
			s.WaitWordGE(tb.flags[partner], r, uint64(seq), nil)
		}
		span *= tb.mWay + 1
	}
}

func (tb *tunedBarrier) validate(m *machine.Machine, iters int) bool {
	// A correct barrier run completes without deadlock and every thread's
	// final round flag carries the last sequence number.
	for rank := range tb.flags {
		if m.PeekWord(tb.flags[rank], tb.round-1) != uint64(iters) {
			return false
		}
	}
	return true
}

// ompBarrier is the centralized baseline: an atomic arrival counter plus a
// release flag. Every arrival is a serialized RFO on one line and every
// waiter polls the release line — the contention pattern the capability
// model says to avoid.
type ompBarrier struct {
	g       *group
	counter memmode.Buffer
	release memmode.Buffer
	forkNs  float64
}

func newOMPBarrier(m *machine.Machine, cfg knl.Config, g *group, p Params) *ompBarrier {
	return &ompBarrier{
		g:       g,
		counter: allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		release: allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		forkNs:  p.OMPForkNs.Float(),
	}
}

func (ob *ompBarrier) emit(s *machine.Script, rank, seq int) {
	s.Compute(ob.forkNs) // runtime dispatch into __kmp_barrier
	n := len(ob.g.places)
	// The continuation depends on the fetched counter: the last arriver
	// releases, everyone else waits — queued from the AddWord's then hook.
	s.AddWord(ob.counter, 0, 1, func(got uint64) {
		if got == uint64(seq*n) {
			s.StoreWord(ob.release, 0, uint64(seq))
			return
		}
		s.WaitWordGE(ob.release, 0, uint64(seq), nil)
	})
}

func (ob *ompBarrier) validate(m *machine.Machine, iters int) bool {
	return m.PeekWord(ob.counter, 0) == uint64(iters*len(ob.g.places)) &&
		m.PeekWord(ob.release, 0) == uint64(iters)
}

// mpiBarrier is the message-passing baseline: a classic 1-way dissemination
// where every notification is an MPI message (software overhead plus a
// copy through a shared bounce segment) — the "different address spaces"
// disadvantage the paper quantifies at up to 24x.
type mpiBarrier struct {
	g   *group
	mpi *mpiFabric
	rds int
}

func newMPIBarrier(m *machine.Machine, cfg knl.Config, g *group, p Params) *mpiBarrier {
	return &mpiBarrier{
		g:   g,
		mpi: newMPIFabric(m, cfg, p, len(g.places)),
		rds: core.DisseminationRounds(len(g.places), 1),
	}
}

func (mb *mpiBarrier) emit(s *machine.Script, rank, seq int) {
	n := len(mb.g.places)
	span := 1
	for r := 0; r < mb.rds; r++ {
		to := (rank + span) % n
		from := (rank - span + n) % n
		mb.mpi.send(s, rank, to, r, seq, nil)
		mb.mpi.recv(s, from, rank, r, seq, nil)
		span *= 2
	}
}

func (mb *mpiBarrier) validate(m *machine.Machine, iters int) bool {
	return true // completion without deadlock is the barrier's contract
}
