package coll

import (
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/tune"
)

// tunedBcast is the model-tuned tree broadcast of Section IV-B.1: an
// inter-tile tree with the DP-optimal heterogeneous fan-outs, flag and
// payload sharing one cache line (RI+RL), per-child acknowledgement lines
// (RI + k*RR) and a flat intra-tile stage.
type tunedBcast struct {
	g *group
	*treeIndex

	payload  []memmode.Buffer // per node: MsgLines lines; line 0 = flag+data
	acks     []memmode.Buffer // per node: one line per child
	tileFlag []memmode.Buffer // per node: intra-tile release
	seen     []uint64         // per rank: last observed value
	// src is the root's payload word for an iteration (< 4096), read at
	// the instant the root starts broadcasting it.
	src func(seq int) uint64
}

func newTunedBcast(m *machine.Machine, cfg knl.Config, model *core.Model,
	g *group, p Params, src func(seq int) uint64) *tunedBcast {
	tt := tune.Broadcast(model, len(g.leaders))
	ti := indexTree(tt.Tree, len(g.leaders))
	tb := &tunedBcast{g: g, treeIndex: ti, seen: make([]uint64, len(g.places)), src: src}
	for node, lr := range g.leaders {
		pl := g.places[lr]
		tb.payload = append(tb.payload,
			allocFor(m, cfg, pl, p.BufKind, int64(p.MsgLines)*knl.LineSize))
		ackLines := len(ti.children[node])
		if ackLines < 1 {
			ackLines = 1
		}
		tb.acks = append(tb.acks,
			allocFor(m, cfg, pl, p.BufKind, int64(ackLines)*knl.LineSize))
		tb.tileFlag = append(tb.tileFlag,
			allocFor(m, cfg, pl, p.BufKind, knl.LineSize))
	}
	return tb
}

// bcastPayload is a plain broadcast's payload word: it differs between
// consecutive iterations, and the flag word seq*4096 + payload stays
// monotone in seq so pollers can use >= thresholds.
func bcastPayload(seq int) uint64 { return uint64(seq%1000) + 7 }

func (tb *tunedBcast) emit(s *machine.Script, rank, seq int) {
	node := tb.g.nodeOf[rank]
	lines := tb.payload[node].NumLines()

	if !tb.g.leader[rank] {
		// Intra-tile follower: wait for the leader's cheap local flag.
		s.WaitWordGE(tb.tileFlag[node], 0, uint64(seq)*4096, func(got uint64) {
			tb.seen[rank] = got - uint64(seq)*4096
		})
		if lines > 1 {
			s.ReadStreamRange(tb.payload[node], 1, lines-1, true)
		}
		return
	}

	var val uint64
	if tb.parent[node] < 0 {
		// Deferred: an allreduce's source is the reduce result, set
		// mid-iteration, so it is read at the simulated instant.
		s.Do(func() { val = uint64(seq)*4096 + tb.src(seq) })
		// Root: write the payload, then flag+data in line 0.
		for li := 1; li < lines; li++ {
			s.Store(tb.payload[node], li)
		}
		s.StoreWordFn(tb.payload[node], 0, func() uint64 { return val })
	} else {
		p := tb.parent[node]
		s.WaitWordGE(tb.payload[p], 0, uint64(seq)*4096, func(got uint64) { val = got })
		// Copy the message into the local shared structure (contended read
		// of the parent's lines: the TC(k) term).
		if lines > 1 {
			s.CopyStreamRange(tb.payload[node], tb.payload[p], 1, 1, lines-1, false)
		}
		s.StoreWordFn(tb.payload[node], 0, func() uint64 { return val })
		// Acknowledge to the parent.
		s.StoreWord(tb.acks[p], tb.slot[node], uint64(seq))
	}
	s.Do(func() { tb.seen[rank] = val - uint64(seq)*4096 })

	// Release the intra-tile followers.
	if len(tb.g.follows[node]) > 0 {
		s.StoreWordFn(tb.tileFlag[node], 0, func() uint64 { return val })
	}

	// Collect the children's acknowledgement flags (RI + k*RR).
	for i := range tb.children[node] {
		s.WaitWordGE(tb.acks[node], i, uint64(seq), nil)
	}
}

func (tb *tunedBcast) validate(m *machine.Machine, iters int) bool {
	return allEqual(tb.seen, bcastPayload(iters))
}

// ompBcast is the centralized baseline: a single shared flag+payload that
// all threads poll and read simultaneously — it pays the full contention
// cost TC(n) every time.
type ompBcast struct {
	g       *group
	payload memmode.Buffer
	ack     memmode.Buffer
	seen    []uint64
	forkNs  float64
}

func newOMPBcast(m *machine.Machine, cfg knl.Config, g *group, p Params) *ompBcast {
	return &ompBcast{
		g:       g,
		payload: allocFor(m, cfg, g.places[0], p.BufKind, int64(p.MsgLines)*knl.LineSize),
		ack:     allocFor(m, cfg, g.places[0], p.BufKind, knl.LineSize),
		seen:    make([]uint64, len(g.places)),
		forkNs:  p.OMPForkNs.Float(),
	}
}

func (ob *ompBcast) emit(s *machine.Script, rank, seq int) {
	s.Compute(ob.forkNs) // runtime dispatch
	lines := ob.payload.NumLines()
	if rank == 0 {
		for li := 1; li < lines; li++ {
			s.Store(ob.payload, li)
		}
		s.StoreWord(ob.payload, 0, uint64(seq)*4096+bcastPayload(seq))
		s.Do(func() { ob.seen[0] = bcastPayload(seq) })
		// Cumulative arrival counter: one tick per reader per iteration.
		s.WaitWordGE(ob.ack, 0, uint64(seq)*uint64(len(ob.g.places)-1), nil)
		return
	}
	s.WaitWordGE(ob.payload, 0, uint64(seq)*4096, func(got uint64) {
		ob.seen[rank] = got - uint64(seq)*4096
	})
	if lines > 1 {
		s.ReadStreamRange(ob.payload, 1, lines-1, true)
	}
	s.AddWord(ob.ack, 0, 1, nil)
}

func (ob *ompBcast) validate(m *machine.Machine, iters int) bool {
	return allEqual(ob.seen, bcastPayload(iters))
}
