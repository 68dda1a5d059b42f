package coll

import (
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/tune"
)

// Allgather completes the collective family: every thread contributes one
// line and ends up with every other thread's line. The tuned variant uses
// Bruck-style m-way dissemination (the barrier's communication structure
// carrying payload: in round r each thread forwards its accumulated block
// of (m+1)^r lines to m peers), so the capability model's Equation 2
// machinery predicts its critical path with a bandwidth term added.
const Allgather Op = 4

// tunedAllgather runs the m-way dissemination with payload accumulation.
type tunedAllgather struct {
	mWay int
	rds  int
	// slabs[rank]: n payload lines (slot per contributor) + one flag line
	// per round at the end.
	slabs []memmode.Buffer
	n     int
	got   []int // rank -> number of contributor ranks received
}

func newTunedAllgather(m *machine.Machine, cfg knl.Config, model *core.Model,
	g *group, p Params) *tunedAllgather {
	n := len(g.places)
	b := tune.Barrier(model, n)
	ag := &tunedAllgather{mWay: b.M, rds: b.Rounds, n: n,
		got: make([]int, n)}
	for _, pl := range g.places {
		ag.slabs = append(ag.slabs,
			allocFor(m, cfg, pl, p.BufKind, int64(n+b.Rounds+1)*knl.LineSize))
	}
	return ag
}

func (ag *tunedAllgather) emit(s *machine.Script, rank, seq int) {
	n := ag.n
	// Own contribution occupies slot `rank` of the local slab.
	s.StoreWord(ag.slabs[rank], rank, uint64(seq))
	// The dissemination schedule is a pure function of (rank, round), so the
	// whole walk — including the mine-set bookkeeping — is known at emit time.
	mine := map[int]bool{rank: true}
	span := 1
	for r := 0; r < ag.rds; r++ {
		// Publish round flag: "my slab now holds `span`-worth of blocks".
		s.StoreWord(ag.slabs[rank], n+r, uint64(seq))
		for j := 1; j <= ag.mWay; j++ {
			partner := (rank - j*span + j*span*n) % n
			if partner == rank {
				continue
			}
			s.WaitWordGE(ag.slabs[partner], n+r, uint64(seq), nil)
			// Pull the partner's accumulated block: their own contribution
			// plus what they gathered in earlier rounds.
			for _, src := range blockOwners(partner, span, ag.mWay, n) {
				if mine[src] {
					continue
				}
				s.Load(ag.slabs[partner], src)
				s.Store(ag.slabs[rank], src)
				mine[src] = true
			}
		}
		span *= ag.mWay + 1
		if span >= n {
			break
		}
	}
	s.Do(func() { ag.got[rank] = len(mine) })
}

// blockOwners lists the contributor ranks held by `owner` after gathering
// `span` worth of dissemination rounds with fan-out m.
func blockOwners(owner, span, mWay, n int) []int {
	out := []int{owner}
	step := 1
	for step < span {
		cur := append([]int(nil), out...)
		for j := 1; j <= mWay; j++ {
			for _, o := range cur {
				out = append(out, ((o-j*step)%n+n)%n)
			}
		}
		step *= mWay + 1
	}
	return out
}

func (ag *tunedAllgather) validate(m *machine.Machine, iters int) bool {
	return allEqual(ag.got, ag.n)
}

// ompAllgather is the centralized baseline: every thread deposits its line
// into one shared slab, waits on a counter, then reads all n slots — n^2
// contended reads of the same tile's memory.
type ompAllgather struct {
	slab   memmode.Buffer
	count  memmode.Buffer
	forkNs float64
	n      int
	got    []int
}

func newOMPAllgather(m *machine.Machine, cfg knl.Config, g *group, p Params) *ompAllgather {
	n := len(g.places)
	return &ompAllgather{
		slab:   allocFor(m, cfg, g.places[0], p.BufKind, int64(n)*knl.LineSize),
		count:  allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		forkNs: p.OMPForkNs.Float(),
		n:      n,
		got:    make([]int, n),
	}
}

func (oa *ompAllgather) emit(s *machine.Script, rank, seq int) {
	s.Compute(oa.forkNs)
	s.StoreWord(oa.slab, rank, uint64(seq))
	s.AddWord(oa.count, 0, 1, nil)
	s.WaitWordGE(oa.count, 0, uint64(seq*oa.n), nil)
	have := 0
	for i := 0; i < oa.n; i++ {
		s.LoadWord(oa.slab, i, func(got uint64) {
			if got >= uint64(seq) {
				have++
			}
		})
	}
	s.Do(func() { oa.got[rank] = have })
}

func (oa *ompAllgather) validate(m *machine.Machine, iters int) bool {
	return allEqual(oa.got, oa.n)
}

// mpiAllgather is the baseline: Bruck with m=1, every block exchange an
// MPI message (overhead + double copy).
type mpiAllgather struct {
	mpi *mpiFabric
	n   int
	got []int
}

func newMPIAllgather(m *machine.Machine, cfg knl.Config, g *group, p Params) *mpiAllgather {
	return &mpiAllgather{
		mpi: newMPIFabric(m, cfg, p, len(g.places)),
		n:   len(g.places),
		got: make([]int, len(g.places)),
	}
}

func (ma *mpiAllgather) emit(s *machine.Script, rank, seq int) {
	n := ma.n
	have := 1
	span := 1
	for round := 0; span < n; round++ {
		to := (rank + span) % n
		from := (rank - span + n) % n
		// Send the accumulated block (have lines) as one message stream;
		// the fabric charges per-message overhead plus the copies.
		blk := have
		if blk > n-have {
			blk = n - have
		}
		for i := 0; i < blk; i++ {
			v := uint64(i)
			ma.mpi.send(s, rank, to, 2+round, seq, func() uint64 { return v })
		}
		for i := 0; i < blk; i++ {
			ma.mpi.recv(s, from, rank, 2+round, seq, nil)
		}
		have += blk
		span *= 2
	}
	got := have
	s.Do(func() { ma.got[rank] = got })
}

func (ma *mpiAllgather) validate(m *machine.Machine, iters int) bool {
	return allEqual(ma.got, ma.n)
}
