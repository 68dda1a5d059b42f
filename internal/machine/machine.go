// Package machine assembles the full simulated Knights Landing system:
// tiles with L1/L2 tag arrays and CHA directories, the mesh router, the
// memory channels and the memory-mode policy, and runs kernel programs
// (loads, stores, streams, flag polling) pinned to cores with full MESIF
// protocol timing.
//
// This is the substrate every benchmark in the repository "measures"; see
// DESIGN.md for the substitution rationale and the calibration policy.
package machine

import (
	"math/bits"

	"knlcap/internal/cache"
	"knlcap/internal/cluster"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/memory"
	"knlcap/internal/mesh"
	"knlcap/internal/sim"
	"knlcap/internal/stats"
)

// tileState holds the shared structures of one dual-core tile.
type tileState struct {
	l2 *cache.SetAssoc
	// cha serializes coherence requests homed at this tile's directory.
	cha *sim.Resource
	// port serializes cache-to-cache forwards sourced from this tile's L2.
	port *sim.Resource
}

// coreState holds one core's private structures.
type coreState struct {
	l1 *cache.SetAssoc
	// issue serializes the core's execution of streaming kernels: the four
	// hyperthreads of a core share it, so compact schedules contend here
	// (the paper's compact-vs-scatter differences in Figure 9).
	issue *sim.Resource
}

// Machine is one simulated KNL under a specific configuration.
//
// Fields outside the digest/reset state contract carry //knl:nostate
// with the justification; the statecov analyzer enforces that every
// other field is reachable from both StateDigest and Reset.
type Machine struct {
	Env *sim.Env
	//knl:nostate immutable configuration, fixed at construction
	Cfg knl.Config
	//knl:nostate immutable topology, a function of the configuration alone
	FP *knl.Floorplan
	//knl:nostate immutable mesh timing model with no mutable state
	Router *mesh.Router
	//knl:nostate quiescent between runs; its serializing effect is folded through the clock
	Fabric *mesh.LinkFabric
	//knl:nostate immutable placement function over the floorplan
	Mapper *cluster.Mapper
	Mem    *memory.System
	Policy *memmode.Policy
	//knl:nostate allocation registry; the line tables resync from it and fold the result
	Alloc *memmode.Allocator
	//knl:nostate timing parameters: configuration, not simulated state
	P Params

	tiles []*tileState
	cores []*coreState

	// lines holds the dense per-line metadata tables — directory owner
	// bitsets, payload words, watch slots — one per memory kind, replacing
	// the former dir/words/watchers maps (see linetable.go).
	lines [2]lineTable

	rng *stats.RNG
	//knl:nostate observer hook, cleared on Reset and never read by the protocol
	tracer Tracer

	// freeMemJobs and freeDrains recycle the frames of finished stream
	// flush helpers (see flushOps in step_stream.go).
	//knl:nostate recycled helper frames, zeroed on return and invisible to any digest
	freeMemJobs []*memJobStep
	//knl:nostate recycled helper frames, zeroed on return and invisible to any digest
	freeDrains []*drainStep
}

// Interned resource-name tables: a machine builds ~250 named resources,
// and sweeps build (or reset) many machines, so the names are formatted
// once per process instead of once per construction.
var (
	l2Names    = sim.NameTable("L2", knl.TileSlots)
	chaNames   = sim.NameTable("CHA", knl.TileSlots)
	portNames  = sim.NameTable("L2port", knl.TileSlots)
	l1Names    = sim.NameTable("L1", knl.TileSlots*knl.CoresPerTile)
	issueNames = sim.NameTable("issue", knl.TileSlots*knl.CoresPerTile)
)

// New builds a machine for the configuration with default timing parameters.
func New(cfg knl.Config) *Machine {
	return NewWithParams(cfg, DefaultParams())
}

// NewWithParams builds a machine with explicit timing parameters.
func NewWithParams(cfg knl.Config, p Params) *Machine {
	return NewSeededWithParams(cfg, p, cfg.YieldSeed)
}

// NewSeededWithParams builds a machine with explicit timing parameters and
// an explicit jitter seed. The floorplan keeps using cfg.YieldSeed so the
// machine's topology stays a function of the configuration alone; only the
// jitter RNG stream varies with the seed.
func NewSeededWithParams(cfg knl.Config, p Params, seed uint64) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	env := sim.NewEnv()
	fp := knl.NewFloorplan(cfg.YieldSeed)
	m := &Machine{
		Env:    env,
		Cfg:    cfg,
		FP:     fp,
		Router: mesh.NewRouter(fp, mesh.DefaultParams()),
		Fabric: mesh.NewLinkFabric(env, mesh.DefaultParams()),
		Mapper: cluster.NewMapper(fp, cfg),
		Mem:    memory.NewSystem(env, cfg.Cluster),
		Policy: memmode.NewPolicy(cfg),
		Alloc:  memmode.NewAllocator(cfg),
		P:      p,
		rng:    stats.NewRNG(seed ^ 0x6a17),
	}
	m.lines[knl.DDR].init(knl.DDR, cache.LineOf(memmode.DDRBase))
	m.lines[knl.MCDRAM].init(knl.MCDRAM, cache.LineOf(memmode.MCDRAMBase))
	// The per-tile and per-core structures and their resources are carved
	// from a few slabs: a point that builds a fresh machine would otherwise
	// pay several hundred small allocations for them.
	nt, nc := fp.NumTiles(), fp.NumTiles()*knl.CoresPerTile
	res := make([]sim.Resource, 2*nt+nc) // each tile's CHA and L2 port, then each core's issue
	newRes := func(i int, name string) *sim.Resource {
		res[i] = *sim.NewResource(env, name, 1)
		return &res[i]
	}
	tiles, cores := make([]tileState, nt), make([]coreState, nc)
	m.tiles, m.cores = make([]*tileState, nt), make([]*coreState, nc)
	for t := range tiles {
		tiles[t] = tileState{
			l2:   cache.NewSetAssoc(l2Names[t], knl.L2Bytes, knl.L2Ways),
			cha:  newRes(2*t, chaNames[t]),
			port: newRes(2*t+1, portNames[t]),
		}
		m.tiles[t] = &tiles[t]
	}
	for c := range cores {
		cores[c] = coreState{
			l1:    cache.NewSetAssoc(l1Names[c], knl.L1Bytes, knl.L1Ways),
			issue: newRes(2*nt+c, issueNames[c]),
		}
		m.cores[c] = &cores[c]
	}
	return m
}

// Reset returns the machine to the state NewSeededWithParams(m.Cfg, p,
// seed) constructs, reusing every existing structure in place: the clock
// and event counter restart, tag arrays, line tables, policy state,
// resource statistics and channel counters are cleared, the allocator
// forgets its buffers, and the jitter stream is reseeded. The topology
// (floorplan, router, mapper) is a function of the configuration alone
// and is kept. Reset panics if the previous Run left events queued or
// processes live or blocked.
//
// The contract — relied on by exp.MachinePool and proved by
// TestResetReplayDigest — is that a reset machine is digest-identical to
// a freshly constructed one under any subsequent workload.
func (m *Machine) Reset(p Params, seed uint64) {
	m.Env.Reset()
	for _, ts := range m.tiles {
		ts.l2.Reset()
		ts.cha.Reset()
		ts.port.Reset()
	}
	for _, cs := range m.cores {
		cs.l1.Reset()
		cs.issue.Reset()
	}
	m.Mem.Reset()
	m.Policy.Reset()
	m.Fabric.Reset()
	m.Alloc.Reset()
	m.lines[knl.DDR].reset()
	m.lines[knl.MCDRAM].reset()
	m.P = p
	m.rng = stats.NewRNG(seed ^ 0x6a17)
	m.tracer = nil
}

// NumTiles returns the number of active tiles.
func (m *Machine) NumTiles() int { return len(m.tiles) }

// NumCores returns the number of active cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// jitter returns d scaled by a deterministic pseudo-random factor in
// [1-JitterFrac, 1+JitterFrac].
func (m *Machine) jitter(d float64) float64 {
	if m.P.JitterFrac == 0 {
		return d
	}
	return d * (1 + m.P.JitterFrac*(2*m.rng.Float64()-1))
}

// Jitter implements sim.Jitterer, letting step-process micro-ops draw
// their timing perturbation at op entry — the simulated instant the wait
// begins — so concurrent processes consume the shared RNG stream in
// simulated-time order.
func (m *Machine) Jitter(d sim.Time) sim.Time { return m.jitter(d) }

// meshHopOps routes a protocol request packet between two mesh positions:
// the ring occupancies and the traversal wait queue as micro-ops, with the
// latency jitter drawn when the wait op is reached. Data-return legs are
// folded into post-commit tails and charged as latency only.
func (m *Machine) meshHopOps(c *sim.StepCtx, a, b knl.Pos) {
	if a == b {
		return
	}
	m.Fabric.OccupyCtx(c, a, b)
	c.WaitJit(m, m.Router.Latency(a, b))
}

// meshTileToTileOps is meshHopOps between two logical tiles.
func (m *Machine) meshTileToTileOps(c *sim.StepCtx, a, b int) {
	if a == b {
		return
	}
	m.meshHopOps(c, m.FP.TilePos(a), m.FP.TilePos(b))
}

// placeOf resolves the memory placement of a line belonging to buffer b.
func (m *Machine) placeOf(b memmode.Buffer, l cache.Line) cluster.LinePlace {
	return m.Mapper.Place(b.Kind, b.Affinity, l)
}

// placeOfLine resolves placement for a bare line (see bufferOfLine), used
// for evicted victims.
func (m *Machine) placeOfLine(l cache.Line) (cluster.LinePlace, bool) {
	b, ok := m.bufferOfLine(l)
	if !ok {
		return cluster.LinePlace{}, false
	}
	return m.placeOf(b, l), true
}

// channelOf resolves only the memory channel serving line l of buffer b.
func (m *Machine) channelOf(b memmode.Buffer, l cache.Line) int {
	return m.Mapper.Channel(b.Kind, b.Affinity, l)
}

// bufferOfLine finds the buffer a bare line belongs to. The line table
// records each line's buffer, so the lookup is O(1) instead of the
// allocator's binary search.
func (m *Machine) bufferOfLine(l cache.Line) (memmode.Buffer, bool) {
	t, _, i := m.lineState(l)
	id := t.lineBuf[i]
	if id == 0 {
		// The mapping may lag the allocator for a line whose region was
		// extended before its buffer existed; sync once and re-check.
		t.grow(m.Alloc, i)
		if id = t.lineBuf[i]; id == 0 {
			return memmode.Buffer{}, false
		}
	}
	return t.bufs[id-1], true
}

// forwarder picks the tile that will source a cache-to-cache transfer for
// the line, preferring M > E > F (Shared copies cannot forward in MESIF).
// owners is the line's directory word, read by the caller in the same
// juncture.
func (m *Machine) forwarder(l cache.Line, owners uint64) (tile int, st cache.State, ok bool) {
	best := cache.Invalid
	bestTile := -1
	for o := owners; o != 0; o &= o - 1 {
		t := bits.TrailingZeros64(o)
		s := m.tiles[t].l2.Peek(l)
		if s.CanForward() && rankState(s) > rankState(best) {
			best, bestTile = s, t
		}
	}
	if bestTile < 0 {
		return 0, cache.Invalid, false
	}
	return bestTile, best, true
}

func rankState(s cache.State) int {
	switch s {
	case cache.Modified:
		return 3
	case cache.Exclusive:
		return 2
	case cache.Forward:
		return 1
	default:
		return 0
	}
}

// installL2Tags inserts a line into a tile's L2 at zero simulated cost:
// tag-array insert, directory bookkeeping and L1 back-invalidation of the
// victim. It reports a Modified victim instead of writing it back, so a
// step process can commit the tags at one juncture and drive the
// write-back's channel occupancies as queued micro-ops.
func (m *Machine) installL2Tags(tile int, l cache.Line, st cache.State) (victim cache.Line, dirty bool) {
	t, _, i := m.lineState(l)
	return m.installedL2(t, i, tile, m.tiles[tile].l2.Insert(l, st))
}

// installedL2 is the directory half of installL2Tags for the line in slot
// i of table t, once the tile's L2 has returned victim v: Prime calls it
// with the slot index it already holds.
func (m *Machine) installedL2(t *lineTable, i, tile int, v cache.Victim) (victim cache.Line, dirty bool) {
	t.addOwner(i, tile)
	if v.State == cache.Invalid {
		return 0, false
	}
	m.dirRemove(v.Line, tile)
	m.invalidateTileL1s(tile, v.Line)
	return v.Line, v.State == cache.Modified
}

// --- zero-time setup helpers ------------------------------------------------

// invalidateTags drops the line from the L2 and L1 tag arrays of every
// tile in the owner bitset.
func (m *Machine) invalidateTags(l cache.Line, owners uint64) {
	for o := owners; o != 0; o &= o - 1 {
		t := bits.TrailingZeros64(o)
		m.tiles[t].l2.Invalidate(l)
		m.invalidateTileL1s(t, l)
	}
}

// FlushLine removes a line from every cache (no timing cost; benchmark
// setup only). Dirty data is discarded.
func (m *Machine) FlushLine(l cache.Line) {
	t, _, i := m.lineState(l)
	m.flushSlot(t, i)
}

// flushSlot is FlushLine for the line in slot i of table t. It never
// grows the table.
func (m *Machine) flushSlot(t *lineTable, i int) {
	s, id := &t.slots[i], t.lineBuf[i]
	if s.owners == 0 || s.gen != t.bufGen[id] {
		return
	}
	m.invalidateTags(t.base+cache.Line(i), s.owners)
	s.owners = 0
	t.bufLive[id]--
	t.dirLive--
}

// FlushBuffer removes every line of the buffer from all caches. For a
// whole registered allocation the directory entries die in one epoch bump
// (generation counter) after the cached lines leave the tag arrays;
// sub-buffer slices fall back to the per-line path.
//
//knl:hotpath cache-mode sweeps flush between every chunk
func (m *Machine) FlushBuffer(b memmode.Buffer) {
	n := b.NumLines()
	if n == 0 {
		return
	}
	t, lo := m.bufferSlots(b)
	if id := t.lineBuf[lo]; id != 0 {
		if rec := t.bufs[id-1]; rec.Base == b.Base && rec.Bytes == b.Bytes {
			m.flushEpoch(t, id, lo, n)
			return
		}
	}
	for i := lo; i < lo+n; i++ {
		m.flushSlot(t, i)
	}
}

// bufferSlots returns the table holding a non-empty buffer's lines and
// the slot index of its first line, growing the table to cover the last
// one: line i of b is slot lo+i. Callers index the slots and never hold a
// pointer to one: an install's victim goes through dirRemove, which may
// grow the table.
func (m *Machine) bufferSlots(b memmode.Buffer) (t *lineTable, lo int) {
	m.lineState(b.Line(b.NumLines() - 1))
	t, _, lo = m.lineState(b.Line(0))
	return t, lo
}

// flushEpoch retires a whole registered allocation: cached lines leave
// the tag arrays (the walk stops as soon as the buffer's live count is
// exhausted, so flushing an already-cold buffer is O(1)), then a single
// generation bump kills every directory entry at once.
func (m *Machine) flushEpoch(t *lineTable, id int32, lo, n int) {
	g := t.bufGen[id]
	for i, live := lo, t.bufLive[id]; live > 0 && i < lo+n; i++ {
		s := &t.slots[i]
		if s.owners == 0 || s.gen != g {
			continue
		}
		m.invalidateTags(t.base+cache.Line(i), s.owners)
		live--
	}
	t.bufGen[id] = g + 1
	t.dirLive -= int(t.bufLive[id])
	t.bufLive[id] = 0
}

// Prime installs every line of the buffer in the given core's caches with
// the given state, at zero simulated cost (benchmark setup). For Shared the
// line is also installed as Forward in a neighbouring tile (MESIF requires
// a forwarder for the S measurements, mirroring how BenchIT prepares
// states); for Forward a Shared copy is placed on the neighbour.
//
// The buffer is walked slot by slot, one line at a time: line i is
// flushed, installed on the tile (L2, then the core's L1) and then on the
// neighbour before line i+1 is touched, so every tag array ends with the
// ways, LRU ticks and victims of priming the lines one by one. An L2
// victim leaves the directory and its tile's L1s as on any install;
// priming is setup, so a dirty victim is discarded, not written back. An
// unsupported state panics before anything is touched.
func (m *Machine) Prime(b memmode.Buffer, core int, st cache.State) {
	tile := core / knl.CoresPerTile
	nb, nbSt := -1, cache.Invalid // the secondary S/F copy's tile and state
	switch st {
	case cache.Invalid, cache.Modified, cache.Exclusive:
	case cache.Shared:
		nb, nbSt = m.neighborTile(tile), cache.Forward
	case cache.Forward:
		nb, nbSt = m.neighborTile(tile), cache.Shared
	default:
		panic("machine: cannot prime state " + st.String())
	}
	n := b.NumLines()
	if n == 0 {
		return
	}
	t, lo := m.bufferSlots(b)
	for i := lo; i < lo+n; i++ {
		m.flushSlot(t, i)
		if st == cache.Invalid {
			continue
		}
		// The flush left the line in no cache (the directory is
		// authoritative; see CheckPresence) and the neighbour is never the
		// tile itself, so no install needs to look for the line.
		l := t.base + cache.Line(i)
		m.installedL2(t, i, tile, m.tiles[tile].l2.InsertAbsent(l, st))
		m.cores[core].l1.InsertAbsent(l, st)
		if nb >= 0 {
			m.installedL2(t, i, nb, m.tiles[nb].l2.InsertAbsent(l, nbSt))
			m.cores[nb*knl.CoresPerTile].l1.InsertAbsent(l, nbSt)
		}
	}
}

// neighborTile picks the tile holding the secondary S/F copy: adjacent to
// the owner, but never tile 0, which is the conventional measuring tile of
// the benchmark suite (a copy there would turn remote reads into L1 hits).
func (m *Machine) neighborTile(tile int) int {
	nb := (tile + 1) % m.NumTiles()
	if nb == 0 {
		nb = (tile + 2) % m.NumTiles()
	}
	return nb
}

// LineState reports where a line is cached: the state in the given tile's
// L2 (Invalid if absent).
func (m *Machine) LineState(tile int, l cache.Line) cache.State {
	return m.tiles[tile].l2.Peek(l)
}

// L1State reports the state of a line in a core's L1.
func (m *Machine) L1State(core int, l cache.Line) cache.State {
	return m.cores[core].l1.Peek(l)
}
