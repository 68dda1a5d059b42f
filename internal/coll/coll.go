// Package coll implements the communication collectives of Section IV-B on
// the simulated machine: the model-tuned tree broadcast, tree reduce and
// m-way dissemination barrier, plus the two baselines the paper compares
// against — an OpenMP-style centralized implementation (all threads hammer
// shared lines) and an MPI-style implementation (separate address spaces:
// every hop is a copy-in/copy-out through a bounce buffer plus software
// stack overhead). The measurement harness regenerates Figures 6-8.
package coll

import (
	"fmt"

	"knlcap/internal/bench"
	"knlcap/internal/core"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
	"knlcap/internal/tune"
	"knlcap/internal/units"
)

// Algorithm selects an implementation.
type Algorithm int

const (
	Tuned Algorithm = iota // model-tuned (this paper)
	OMP                    // OpenMP-style centralized baseline
	MPI                    // MPI-style message-passing baseline
)

func (a Algorithm) String() string {
	switch a {
	case Tuned:
		return "model-tuned"
	case OMP:
		return "omp"
	case MPI:
		return "mpi"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Op is a collective operation.
type Op int

const (
	Barrier Op = iota
	Bcast
	Reduce
)

func (o Op) String() string {
	switch o {
	case Barrier:
		return "barrier"
	case Bcast:
		return "broadcast"
	case Reduce:
		return "reduce"
	case Allreduce:
		return "allreduce"
	case Allgather:
		return "allgather"
	case Scan:
		return "scan"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Params configure a collective measurement.
type Params struct {
	Threads  int
	Schedule knl.Schedule
	// MsgLines is the payload size in cache lines (broadcast/reduce).
	MsgLines int
	// BufKind places the shared structures (the paper reports MCDRAM for
	// the SNC4-flat figures).
	BufKind knl.MemKind
	// MPIOverheadNs is the per-message software cost of the MPI baseline
	// (matching, tag lookup, progress engine).
	MPIOverheadNs units.Nanos
	// OMPForkNs is the per-call runtime cost of the OpenMP baseline
	// (dispatch through the runtime's barrier/reduction machinery).
	OMPForkNs units.Nanos
}

// DefaultParams returns the configuration of Figures 6-8.
func DefaultParams(threads int, sched knl.Schedule) Params {
	return Params{
		Threads:       threads,
		Schedule:      sched,
		MsgLines:      1, // 8-byte operations, one line
		BufKind:       knl.MCDRAM,
		MPIOverheadNs: 1000,
		OMPForkNs:     800,
	}
}

// Result is one measured collective configuration.
type Result struct {
	Op        Op
	Alg       Algorithm
	Config    knl.Config
	Params    Params
	Summary   stats.Summary // per-iteration completion times (ns)
	ModelLo   units.Nanos   // min-max model envelope (Tuned only, else 0)
	ModelHi   units.Nanos
	Validated bool // payload/semantics checks passed
}

// group is the participant layout: threads mapped to tile-level nodes with
// one leader per tile (the paper: inter-tile tree plus flat intra-tile
// stage).
type group struct {
	places  []knl.Place
	leaders []int   // ranks that lead their tile, in node order
	nodeOf  []int   // rank -> node index (its tile's node)
	leader  []bool  // rank -> is tile leader
	follows [][]int // node -> follower ranks
}

func buildGroup(places []knl.Place) *group {
	g := &group{places: places,
		nodeOf: make([]int, len(places)),
		leader: make([]bool, len(places)),
	}
	tileNode := map[int]int{}
	for r, pl := range places {
		node, ok := tileNode[pl.Tile]
		if !ok {
			node = len(g.leaders)
			tileNode[pl.Tile] = node
			g.leaders = append(g.leaders, r)
			g.follows = append(g.follows, nil)
			g.leader[r] = true
		} else {
			g.follows[node] = append(g.follows[node], r)
		}
		g.nodeOf[r] = node
	}
	return g
}

// treeIndex assigns tree nodes to group nodes in BFS order, so node 0 (the
// thread-0 tile) is the root, and records parent/children relations.
type treeIndex struct {
	parent   []int   // node -> parent node (-1 for root)
	children [][]int // node -> child nodes
	slot     []int   // node -> its index in its parent's children
}

func indexTree(t *core.Tree, numNodes int) *treeIndex {
	ti := &treeIndex{
		parent:   make([]int, numNodes),
		children: make([][]int, numNodes),
		slot:     make([]int, numNodes),
	}
	ti.parent[0] = -1
	next := 1
	type qe struct {
		t  *core.Tree
		id int
	}
	queue := []qe{{t, 0}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, k := range e.t.Kids {
			id := next
			next++
			ti.parent[id] = e.id
			ti.slot[id] = len(ti.children[e.id])
			ti.children[e.id] = append(ti.children[e.id], id)
			queue = append(queue, qe{k, id})
		}
	}
	if next != numNodes {
		panic(fmt.Sprintf("coll: tree has %d nodes, group has %d", next, numNodes))
	}
	return ti
}

// affinityOf returns the allocation affinity for a place under cfg.
func affinityOf(m *machine.Machine, cfg knl.Config, pl knl.Place) int {
	if !cfg.Cluster.NUMAVisible() {
		return 0
	}
	return m.Mapper.ClusterOfTile(pl.Tile)
}

// allocFor allocates a buffer near the given place.
func allocFor(m *machine.Machine, cfg knl.Config, pl knl.Place, kind knl.MemKind, bytes int64) memmode.Buffer {
	if cfg.Memory != knl.Flat && kind == knl.MCDRAM {
		kind = knl.DDR
	}
	return m.Alloc.MustAlloc(kind, affinityOf(m, cfg, pl), bytes)
}

// envelopeFor computes the min-max model band for the tuned algorithm.
func envelopeFor(model *core.Model, op Op, numNodes, threads int) (lo, hi units.Nanos) {
	env := model.MinMax()
	switch op {
	case Barrier:
		b := tune.Barrier(model, threads)
		return env.BarrierEnvelope(threads, b.M)
	case Bcast:
		t := tune.Broadcast(model, numNodes)
		return env.BroadcastEnvelope(t.Tree)
	case Allreduce:
		rt := tune.Reduce(model, numNodes)
		bt := tune.Broadcast(model, numNodes)
		rlo, rhi := env.ReduceEnvelope(rt.Tree)
		blo, bhi := env.BroadcastEnvelope(bt.Tree)
		return rlo + blo, rhi + bhi
	case Scan:
		return ScanModelCost(env.Best, threads), ScanModelCost(env.Worst, threads)
	case Allgather:
		b := tune.Barrier(model, threads)
		alo, ahi := env.BarrierEnvelope(threads, b.M)
		// Every foreign line is pulled once: a remote read plus a local
		// store (best) or a flag-bounced read plus memory write (worst).
		alo += (env.Best.RR + env.Best.RL).Scale(float64(threads - 1))
		ahi += (env.Worst.RR + env.Worst.RI).Scale(float64(threads - 1))
		return alo, ahi
	default:
		t := tune.Reduce(model, numNodes)
		return env.ReduceEnvelope(t.Tree)
	}
}

// Measure runs one collective configuration on a fresh machine and returns
// the measured distribution plus the model envelope.
func Measure(cfg knl.Config, model *core.Model, o bench.Options, op Op,
	alg Algorithm, p Params) Result {
	return measure(nil, cfg, model, o, op, alg, p)
}

// measure is Measure on a machine from pool (nil builds a fresh one),
// returned to the pool once the result is validated. The machine runs
// machine.New's default protocol constants. The runners see p with
// MsgLines of at least one; the Result records the caller's p.
func measure(pool *exp.MachinePool, cfg knl.Config, model *core.Model,
	o bench.Options, op Op, alg Algorithm, p Params) Result {
	m := pool.Get(cfg, machine.DefaultParams(), cfg.YieldSeed)
	places := knl.Pin(p.Schedule, m.NumTiles(), p.Threads)
	g := buildGroup(places)
	rp := p
	if rp.MsgLines < 1 {
		rp.MsgLines = 1
	}

	var runner iterRunner
	switch {
	case op == Barrier && alg == Tuned:
		runner = newTunedBarrier(m, cfg, model, g, rp)
	case op == Barrier && alg == OMP:
		runner = newOMPBarrier(m, cfg, g, rp)
	case op == Barrier && alg == MPI:
		runner = newMPIBarrier(m, cfg, g, rp)
	case op == Bcast && alg == Tuned:
		runner = newTunedBcast(m, cfg, model, g, rp, bcastPayload)
	case op == Bcast && alg == OMP:
		runner = newOMPBcast(m, cfg, g, rp)
	case op == Bcast && alg == MPI:
		runner = newMPIBcast(m, cfg, g, rp, bcastPayload)
	case op == Reduce && alg == Tuned:
		runner = newTunedReduce(m, cfg, model, g, rp)
	case op == Reduce && alg == OMP:
		runner = newOMPReduce(m, cfg, g, rp)
	case op == Reduce && alg == MPI:
		runner = newMPIReduce(m, cfg, g, rp)
	case op == Allreduce && alg == Tuned:
		runner = newTunedAllreduce(m, cfg, model, g, rp)
	case op == Allreduce && alg == OMP:
		runner = newOMPAllreduce(m, cfg, g, rp)
	case op == Allreduce && alg == MPI:
		runner = newMPIAllreduce(m, cfg, g, rp)
	case op == Allgather && alg == Tuned:
		runner = newTunedAllgather(m, cfg, model, g, rp)
	case op == Allgather && alg == OMP:
		runner = newOMPAllgather(m, cfg, g, rp)
	case op == Allgather && alg == MPI:
		runner = newMPIAllgather(m, cfg, g, rp)
	case op == Scan && alg == Tuned:
		runner = newTunedScan(m, cfg, model, g, rp)
	case op == Scan && alg == OMP:
		runner = newOMPScan(m, cfg, g, rp)
	default:
		runner = newMPIScan(m, cfg, g, rp)
	}

	maxes := bench.RunWindows(m, places, o, nil, func(rank, iter int) machine.Program {
		s := &machine.Script{}
		runner.emit(s, rank, iter+1)
		return s.Program()
	})
	res := Result{
		Op: op, Alg: alg, Config: cfg, Params: p,
		Summary:   stats.Summarize(maxes),
		Validated: runner.validate(m, o.Iterations),
	}
	pool.Put(m)
	if alg == Tuned {
		res.ModelLo, res.ModelHi = envelopeFor(model, op, len(g.leaders), p.Threads)
	}
	return res
}

// iterRunner emits one collective iteration for one thread rank into a
// machine.Script (replayed as a spawned kernel program). seq starts at 1 and
// increases per iteration.
type iterRunner interface {
	emit(s *machine.Script, rank, seq int)
	// validate checks operation semantics after all iterations.
	validate(m *machine.Machine, iters int) bool
}

// allEqual is the check that every rank observed want.
func allEqual[T comparable](got []T, want T) bool {
	for _, v := range got {
		if v != want {
			return false
		}
	}
	return true
}

// triangle is 1+2+...+n, the sum of the contributions rank+1 of ranks
// 0..n-1.
func triangle(n int) uint64 { return uint64(n) * uint64(n+1) / 2 }

// prefixSums is the scan's check: rank r observed triangle(r+1).
func prefixSums(got []uint64) bool {
	for rank, v := range got {
		if v != triangle(rank+1) {
			return false
		}
	}
	return true
}
