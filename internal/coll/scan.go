package coll

import (
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/units"
)

// Scan (inclusive prefix sum) rounds out the collective family: thread i
// obtains the sum of contributions from threads 0..i. The tuned variant is
// Hillis-Steele over shared lines: in round r, thread i pulls the partial
// of thread i-2^r; log2(n) rounds, each one remote read per thread — the
// capability model predicts r*(RI + RR) like a 1-way dissemination.
const Scan Op = 5

// tunedScan publishes per-round partials in per-thread slabs.
type tunedScan struct {
	// slabs[rank]: one line per round holding (seq, partial).
	slabs  []memmode.Buffer
	rounds int
	n      int
	result []uint64
}

func scanRounds(n int) int {
	r := 0
	for span := 1; span < n; span *= 2 {
		r++
	}
	return r
}

func newTunedScan(m *machine.Machine, cfg knl.Config, model *core.Model,
	g *group, p Params) *tunedScan {
	n := len(g.places)
	ts := &tunedScan{rounds: scanRounds(n), n: n,
		result: make([]uint64, n)}
	for _, pl := range g.places {
		ts.slabs = append(ts.slabs,
			allocFor(m, cfg, pl, p.BufKind, int64(ts.rounds+1)*knl.LineSize))
	}
	return ts
}

func (ts *tunedScan) emit(s *machine.Script, rank, seq int) {
	partial := uint64(rank + 1)
	s.StoreWord(ts.slabs[rank], 0, encodeReduce(seq, partial))
	span := 1
	for r := 0; r < ts.rounds; r++ {
		if rank-span >= 0 {
			s.WaitWordGE(ts.slabs[rank-span], r, uint64(seq)*65536, func(got uint64) {
				partial += got - uint64(seq)*65536
			})
		}
		s.StoreWordFn(ts.slabs[rank], r+1, func() uint64 { return encodeReduce(seq, partial) })
		span *= 2
	}
	s.Do(func() { ts.result[rank] = partial })
}

func (ts *tunedScan) validate(m *machine.Machine, iters int) bool {
	return prefixSums(ts.result)
}

// ompScan is the centralized baseline: serialized handoff — thread i waits
// for thread i-1's prefix, adds, publishes. O(n) critical path.
type ompScan struct {
	chain  memmode.Buffer // one line per rank
	forkNs float64
	n      int
	result []uint64
}

func newOMPScan(m *machine.Machine, cfg knl.Config, g *group, p Params) *ompScan {
	n := len(g.places)
	return &ompScan{
		chain:  allocFor(m, cfg, g.places[0], p.BufKind, int64(n)*knl.LineSize),
		forkNs: p.OMPForkNs.Float(),
		n:      n,
		result: make([]uint64, n),
	}
}

func (os *ompScan) emit(s *machine.Script, rank, seq int) {
	s.Compute(os.forkNs)
	prefix := uint64(0)
	if rank > 0 {
		s.WaitWordGE(os.chain, rank-1, uint64(seq)*65536, func(got uint64) {
			prefix = got - uint64(seq)*65536
		})
	}
	s.Do(func() { prefix += uint64(rank + 1) })
	s.StoreWordFn(os.chain, rank, func() uint64 { return encodeReduce(seq, prefix) })
	s.Do(func() { os.result[rank] = prefix })
}

func (os *ompScan) validate(m *machine.Machine, iters int) bool {
	return prefixSums(os.result)
}

// mpiScan is Hillis-Steele with messages.
type mpiScan struct {
	mpi    *mpiFabric
	n      int
	result []uint64
}

func newMPIScan(m *machine.Machine, cfg knl.Config, g *group, p Params) *mpiScan {
	return &mpiScan{mpi: newMPIFabric(m, cfg, p, len(g.places)),
		n: len(g.places), result: make([]uint64, len(g.places))}
}

func (ms *mpiScan) emit(s *machine.Script, rank, seq int) {
	partial := uint64(rank + 1)
	span := 1
	for r := 0; span < ms.n; r++ {
		if rank+span < ms.n {
			ms.mpi.send(s, rank, rank+span, 8+r, seq, func() uint64 { return partial % 4096 })
		}
		if rank-span >= 0 {
			ms.mpi.recv(s, rank-span, rank, 8+r, seq, func(payload uint64) { partial += payload })
		}
		span *= 2
	}
	s.Do(func() { ms.result[rank] = partial })
}

func (ms *mpiScan) validate(m *machine.Machine, iters int) bool {
	return prefixSums(ms.result)
}

// ScanModelCost is the capability-model prediction for the tuned scan:
// log2(n) rounds of one flag publication plus one remote partial read.
func ScanModelCost(m *core.Model, n int) units.Nanos {
	return (m.RI + m.RR).Scale(float64(scanRounds(n)))
}
