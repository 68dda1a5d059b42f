package coll

import (
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
)

// mpiFabric models intra-node MPI communication between separate address
// spaces: every message crosses a shared bounce segment (copy-in by the
// sender, copy-out by the receiver) and pays a software-stack overhead on
// both sides. The paper notes this double-copy disadvantage "is not
// fundamental" (address spaces could be mapped), which is exactly what the
// tuned algorithms exploit by sharing structures directly.
type mpiFabric struct {
	m   *machine.Machine
	cfg knl.Config
	p   Params
	n   int
	// segs holds the MsgLines-line segments, allocated on first touch:
	// key (from*n+to)*16 + tag%16 is an edge's bounce buffer, key -1-rank
	// a receiver's private landing buffer.
	segs map[int]memmode.Buffer
}

func newMPIFabric(m *machine.Machine, cfg knl.Config, p Params, n int) *mpiFabric {
	return &mpiFabric{m: m, cfg: cfg, p: p, n: n, segs: map[int]memmode.Buffer{}}
}

// segment returns the segment under key, allocating it near rank on first
// touch.
func (f *mpiFabric) segment(key, rank int) memmode.Buffer {
	b, ok := f.segs[key]
	if !ok {
		b = allocFor(f.m, f.cfg, f.placeOf(rank), knl.DDR,
			int64(f.p.MsgLines)*knl.LineSize)
		f.segs[key] = b
	}
	return b
}

// buf returns the bounce buffer of a directed edge and tag slot. Shared
// segments conventionally live near the receiver.
func (f *mpiFabric) buf(from, to, tag int) memmode.Buffer {
	return f.segment((from*f.n+to)*16+tag%16, to)
}

func (f *mpiFabric) placeOf(rank int) knl.Place {
	return knl.Place{Tile: rank % knl.ActiveTiles, Core: (rank % knl.ActiveTiles) * 2}
}

// send copies the payload into the bounce segment and publishes the flag
// word (value seq*4096 + payload word). The payload closure (nil means 0)
// and the lazy bounce-buffer resolution run at the instants the old blocking
// code reached them, so a value produced by an earlier recv in the same
// iteration is available and first-touch allocation order is preserved.
func (f *mpiFabric) send(s *machine.Script, from, to, tag, seq int, value func() uint64) {
	s.Compute(f.p.MPIOverheadNs.Float())
	var b memmode.Buffer
	s.Do(func() { b = f.buf(from, to, tag) })
	for li := 1; li < f.p.MsgLines; li++ {
		li := li
		s.OpF(func() machine.KernelOp {
			return machine.KernelOp{Kind: machine.KernelStore, B: b, Li: li}
		}, nil)
	}
	s.OpF(func() machine.KernelOp {
		v := uint64(0)
		if value != nil {
			v = value()
		}
		return machine.KernelOp{Kind: machine.KernelStoreWord, B: b, Val: uint64(seq)*4096 + v}
	}, nil)
}

// recv waits for the message and copies it out; then (optional) receives the
// payload word at the flag-observation instant.
func (f *mpiFabric) recv(s *machine.Script, from, to, tag, seq int, then func(payload uint64)) {
	s.Compute(f.p.MPIOverheadNs.Float())
	var b memmode.Buffer
	s.Do(func() { b = f.buf(from, to, tag) })
	s.OpF(func() machine.KernelOp {
		return machine.KernelOp{Kind: machine.KernelWaitWordGE, B: b, Val: uint64(seq) * 4096}
	}, func(got uint64) {
		if then != nil {
			then(got - uint64(seq)*4096)
		}
	})
	for li := 1; li < f.p.MsgLines; li++ {
		li := li
		s.OpF(func() machine.KernelOp {
			return machine.KernelOp{Kind: machine.KernelLoad, B: b, Li: li}
		}, nil)
		s.OpF(func() machine.KernelOp {
			// The receiver's private landing buffer: the copy-out half
			// of the double copy.
			return machine.KernelOp{Kind: machine.KernelStore, B: f.segment(-1-to, to), Li: li}
		}, nil)
	}
}

// binomialEdges computes, for every rank, its parent and children in a
// binomial tree rooted at 0 (the standard MPI broadcast/reduce topology).
func binomialEdges(n int) (parent []int, children [][]int) {
	parent = make([]int, n)
	children = make([][]int, n)
	parent[0] = -1
	for r := 1; r < n; r++ {
		// Parent: clear the lowest set bit.
		p := r & (r - 1)
		parent[r] = p
		children[p] = append(children[p], r)
	}
	// MPI sends high-order children first (largest subtrees).
	for p := range children {
		for i, j := 0, len(children[p])-1; i < j; i, j = i+1, j-1 {
			children[p][i], children[p][j] = children[p][j], children[p][i]
		}
	}
	return parent, children
}

// mpiBcast broadcasts down a binomial tree over all threads.
type mpiBcast struct {
	mpi      *mpiFabric
	parent   []int
	children [][]int
	seen     []uint64
	src      func(seq int) uint64 // the root's payload word, as tunedBcast.src
}

func newMPIBcast(m *machine.Machine, cfg knl.Config, g *group, p Params,
	src func(seq int) uint64) *mpiBcast {
	pa, ch := binomialEdges(len(g.places))
	return &mpiBcast{
		mpi:    newMPIFabric(m, cfg, p, len(g.places)),
		parent: pa, children: ch, seen: make([]uint64, len(g.places)), src: src,
	}
}

func (b *mpiBcast) emit(s *machine.Script, rank, seq int) {
	var val uint64
	if rank == 0 {
		// Deferred, as in tunedBcast: the source is read at the simulated
		// instant.
		s.Do(func() {
			val = b.src(seq)
			b.seen[0] = val
		})
	} else {
		b.mpi.recv(s, b.parent[rank], rank, 0, seq, func(payload uint64) {
			val = payload
			b.seen[rank] = val
		})
	}
	for _, c := range b.children[rank] {
		b.mpi.send(s, rank, c, 0, seq, func() uint64 { return val })
	}
}

func (b *mpiBcast) validate(m *machine.Machine, iters int) bool {
	return allEqual(b.seen, bcastPayload(iters))
}

// mpiReduce reduces up a binomial tree over all threads.
type mpiReduce struct {
	g        *group
	mpi      *mpiFabric
	parent   []int
	children [][]int
	rootSum  uint64
}

func newMPIReduce(m *machine.Machine, cfg knl.Config, g *group, p Params) *mpiReduce {
	pa, ch := binomialEdges(len(g.places))
	return &mpiReduce{
		g: g, mpi: newMPIFabric(m, cfg, p, len(g.places)),
		parent: pa, children: ch,
	}
}

func (rd *mpiReduce) emit(s *machine.Script, rank, seq int) {
	sum := uint64(rank + 1) // this rank's contribution
	// Receive children in reverse send order (largest subtree last).
	for _, c := range rd.children[rank] {
		rd.mpi.recv(s, c, rank, 1, seq, func(payload uint64) { sum += payload })
	}
	if rank == 0 {
		s.Do(func() { rd.rootSum = sum })
		return
	}
	rd.mpi.send(s, rank, rd.parent[rank], 1, seq, func() uint64 { return sum })
}

func (rd *mpiReduce) validate(m *machine.Machine, iters int) bool {
	return rd.rootSum == triangle(len(rd.g.places))
}
