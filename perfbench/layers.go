package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"knlcap/internal/cache"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/memo"
	"knlcap/internal/sim"
	"knlcap/internal/stats"
)

// The layer suite times one simulator module at a time through its public
// API, on fixed inputs that do not depend on the workload seed, so its
// exact counts (events, lines, hits) are the same on every run and every
// seed. Each timing is the median of layerRounds rounds.
const layerRounds = 7

// waitChain is a step process doing n Wait(1) junctures: one event each.
type waitChain struct{ n int }

func (w *waitChain) Step(c *sim.StepCtx) {
	if w.n == 0 {
		c.End()
		return
	}
	w.n--
	c.Wait(1)
}

// resUser is a step process using a shared resource n times for 1 ns.
type resUser struct {
	r *sim.Resource
	n int
}

func (u *resUser) Step(c *sim.StepCtx) {
	if u.n == 0 {
		c.End()
		return
	}
	u.n--
	c.Use(u.r, 1)
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// timed returns fn's wall time in nanoseconds.
func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds())
}

// rounds runs fn layerRounds times and returns the median of its results.
func rounds(fn func() float64) float64 {
	xs := make([]float64, layerRounds)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

func mustRun(m *machine.Machine) {
	if _, err := m.Run(); err != nil {
		panic(err)
	}
}

// opsKernel is a kernel program issuing ops in order, then ending.
func opsKernel(ops []machine.KernelOp) machine.Program {
	i := 0
	return func(float64, uint64) (machine.KernelOp, bool) {
		if i == len(ops) {
			return machine.KernelOp{}, false
		}
		i++
		return ops[i-1], true
	}
}

// lineOps is one op of the given kind per line of b.
func lineOps(kind machine.KernelOpKind, b memmode.Buffer) []machine.KernelOp {
	ops := make([]machine.KernelOp, b.NumLines())
	for i := range ops {
		ops[i] = machine.KernelOp{Kind: kind, B: b, Li: i}
	}
	return ops
}

// coreOfTile is the first core of tile t.
func coreOfTile(t int) knl.Place { return knl.Place{Tile: t, Core: t * knl.CoresPerTile} }

// layerSim times the event engine: a chain of pure waits, and a resource
// shared by 64 step processes.
func layerSim(out metrics) {
	var events uint64
	out.set("sim.event_ns", rounds(func() float64 {
		env := sim.NewEnv()
		chains := make([]waitChain, 4)
		for i := range chains {
			chains[i].n = 50000
			env.GoSteps("wait", &chains[i])
		}
		ns := timed(func() {
			if _, err := env.Run(); err != nil {
				panic(err)
			}
		})
		events = env.Seq()
		return ns / float64(events)
	}), "ns")
	out.setCount("sim.events_per_run", float64(events))

	const users, uses = 64, 400
	out.set("sim.resource_ns", rounds(func() float64 {
		env := sim.NewEnv()
		r := sim.NewResource(env, "shared", 1)
		us := make([]resUser, users)
		for i := range us {
			us[i] = resUser{r: r, n: uses}
			env.GoSteps("user", &us[i])
		}
		return timed(func() {
			if _, err := env.Run(); err != nil {
				panic(err)
			}
		}) / (users * uses)
	}), "ns")
}

// layerMachine times the protocol walks, the stream engine and machine
// construction on SNC4-flat.
func layerMachine(out metrics) {
	cfg := knl.DefaultConfig()
	p := machine.DefaultParams()

	out.set("machine.new_ms", rounds(func() float64 {
		return timed(func() { machine.NewWithParams(cfg, p) }) / 1e6
	}), "ms")

	// Load walk: every line exclusive in a remote tile's caches, read from
	// tile 0 — directory lookup, forward from the owner, downgrade.
	const walkLines = 512
	m := machine.NewWithParams(cfg, p)
	buf := m.Alloc.MustAlloc(knl.DDR, 0, walkLines*knl.LineSize)
	owner := (m.NumTiles() - 1) * knl.CoresPerTile
	var loadEvents uint64
	out.set("machine.load_walk_ns", rounds(func() float64 {
		m.Prime(buf, owner, cache.Exclusive)
		seq := m.Env.Seq()
		m.SpawnKernel(coreOfTile(0), opsKernel(lineOps(machine.KernelLoad, buf)))
		ns := timed(func() { mustRun(m) })
		loadEvents = m.Env.Seq() - seq
		return ns / walkLines
	}), "ns")
	out.setCount("machine.load_walk_events", float64(loadEvents))

	// Store walk: every line shared by all 32 tiles (established by loads,
	// untimed), then written from tile 0 — read-for-ownership plus the
	// invalidation fan-out to 31 sharers.
	var storeEvents uint64
	out.set("machine.store_walk_ns", rounds(func() float64 {
		m.FlushBuffer(buf)
		for t := 0; t < m.NumTiles(); t++ {
			m.SpawnKernel(coreOfTile(t), opsKernel(lineOps(machine.KernelLoad, buf)))
		}
		mustRun(m)
		seq := m.Env.Seq()
		m.SpawnKernel(coreOfTile(0), opsKernel(lineOps(machine.KernelStore, buf)))
		ns := timed(func() { mustRun(m) })
		storeEvents = m.Env.Seq() - seq
		return ns / walkLines
	}), "ns")
	out.setCount("machine.store_walk_events", float64(storeEvents))

	// Flag round trip: two kernels on opposite tiles ping-pong a counter
	// through two flag lines (store word, wait for the partner's word).
	const trips = 1000
	flags := m.Alloc.MustAlloc(knl.DDR, 0, 2*knl.LineSize)
	out.set("machine.flag_rtt_ns", rounds(func() float64 {
		m.FlushBuffer(flags)
		m.PokeWord(flags, 0, 0)
		m.PokeWord(flags, 1, 0)
		var ping, pong []machine.KernelOp
		for k := uint64(1); k <= trips; k++ {
			ping = append(ping,
				machine.KernelOp{Kind: machine.KernelStoreWord, B: flags, Li: 0, Val: k},
				machine.KernelOp{Kind: machine.KernelWaitWordGE, B: flags, Li: 1, Val: k})
			pong = append(pong,
				machine.KernelOp{Kind: machine.KernelWaitWordGE, B: flags, Li: 0, Val: k},
				machine.KernelOp{Kind: machine.KernelStoreWord, B: flags, Li: 1, Val: k})
		}
		m.SpawnKernel(coreOfTile(0), opsKernel(ping))
		m.SpawnKernel(coreOfTile(m.NumTiles()/2), opsKernel(pong))
		return timed(func() { mustRun(m) }) / trips
	}), "ns")

	const primeLines = 256
	pb := m.Alloc.MustAlloc(knl.DDR, 0, primeLines*knl.LineSize)
	out.set("machine.prime_flush_ns", rounds(func() float64 {
		return timed(func() {
			for i := 0; i < 20; i++ {
				m.Prime(pb, 0, cache.Exclusive)
				m.FlushBuffer(pb)
			}
		}) / (20 * primeLines)
	}), "ns")

	// Stream engine: 64 threads, one triad over private buffers each, once
	// on DDR and once on MCDRAM; the machine is reset between rounds.
	const threads, streamLines = 64, 256
	sm := machine.NewWithParams(cfg, p)
	places := knl.Pin(knl.FillTiles, sm.NumTiles(), threads)
	var streamEvents uint64
	var traffic map[knl.MemKind][2]uint64
	var resets []float64
	out.set("machine.stream_line_ns", rounds(func() float64 {
		var ns float64
		for _, kind := range []knl.MemKind{knl.DDR, knl.MCDRAM} {
			for _, pl := range places {
				aff := sm.FP.TileCluster(cfg.Cluster, pl.Tile)
				alloc := func() memmode.Buffer { return sm.Alloc.MustAlloc(kind, aff, streamLines*knl.LineSize) }
				sm.SpawnKernel(pl, opsKernel([]machine.KernelOp{{Kind: machine.StreamTriad,
					Dst: alloc(), Src: alloc(), Src2: alloc(), N: streamLines, NT: true}}))
			}
			ns += timed(func() { mustRun(sm) })
		}
		streamEvents = sm.Env.Seq()
		traffic = sm.ChannelTraffic()
		resets = append(resets, timed(func() { sm.Reset(p, cfg.YieldSeed) })/1e6)
		return ns / (2 * threads * streamLines)
	}), "ns")
	out.set("machine.stream_events_per_line", float64(streamEvents)/(2*threads*streamLines), "count")
	out.set("machine.reset_ms", median(resets), "ms")
	ddr, mc := traffic[knl.DDR], traffic[knl.MCDRAM]
	out.setCount("machine.ddr_lines", float64(ddr[0]+ddr[1]))
	out.setCount("machine.mcdram_lines", float64(mc[0]+mc[1]))
}

// layerCache times the tag arrays: a set-associative array at L2 geometry
// over a footprint twice its capacity, and the direct-mapped MCDRAM side
// cache at memmode's per-EDC slice size.
func layerCache(out metrics) {
	capLines := knl.L2Bytes / knl.LineSize
	lines := make([]cache.Line, 2*capLines)
	rng := stats.NewRNG(0x7a9)
	for i := range lines {
		lines[i] = cache.LineOf(uint64(rng.Intn(4*capLines)) * knl.LineSize)
	}
	n := float64(len(lines))
	var hits, misses uint64
	var ins, look, inv, rst []float64
	for r := 0; r < layerRounds; r++ {
		c := cache.NewSetAssoc("l2", knl.L2Bytes, knl.L2Ways)
		ins = append(ins, timed(func() {
			for _, l := range lines {
				c.Insert(l, cache.Exclusive)
			}
		})/n)
		look = append(look, timed(func() {
			for _, l := range lines {
				c.Lookup(l)
			}
		})/n)
		hits, misses, _ = c.Stats()
		rst = append(rst, timed(func() { c.Reset() }))
		for _, l := range lines {
			c.Insert(l, cache.Exclusive)
		}
		inv = append(inv, timed(func() {
			for _, l := range lines {
				c.Invalidate(l)
			}
		})/n)
	}
	out.set("cache.insert_ns", median(ins), "ns")
	out.set("cache.lookup_ns", median(look), "ns")
	out.set("cache.invalidate_ns", median(inv), "ns")
	out.set("cache.reset_ns", median(rst), "ns")
	out.set("cache.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	out.setCount("cache.hit_base", float64(hits+misses))

	pol := memmode.NewPolicy(knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode))
	out.set("cache.sidecache_ns", rounds(func() float64 {
		d := cache.NewDirectMapped("side", pol.SliceCapacityBytes())
		return timed(func() {
			for _, l := range lines {
				if !d.Probe(l) {
					d.Fill(l)
				}
			}
		}) / n
	}), "ns")
}

// layerMesh times the router over every ordered tile pair.
func layerMesh(out metrics) {
	r := machine.New(knl.DefaultConfig()).Router
	var sink float64
	tiles := knl.ActiveTiles
	out.set("mesh.route_ns", rounds(func() float64 {
		return timed(func() {
			for i := 0; i < 50; i++ {
				for a := 0; a < tiles; a++ {
					for b := 0; b < tiles; b++ {
						sink += r.TileToTile(a, b)
					}
				}
			}
		}) / float64(50*tiles*tiles)
	}), "ns")
	if sink <= 0 {
		panic("mesh: no route cost")
	}
}

// layerExp times handing out a recycled machine from a pool.
func layerExp(out metrics) {
	cfg := knl.DefaultConfig()
	p := machine.DefaultParams()
	var pool exp.MachinePool
	pool.Put(pool.Get(cfg, p, 1))
	out.set("exp.pool_get_us", rounds(func() float64 {
		var m *machine.Machine
		ns := timed(func() { m = pool.Get(cfg, p, 1) })
		pool.Put(m)
		return ns / 1e3
	}), "us")
}

// layerMemo times storing results into a fresh on-disk cache and reading
// them back through a second cache over the same directory (a disk hit, as
// a warm CLI invocation sees it).
func layerMemo(out metrics, root string) {
	const entries = 64
	val := make([]float64, 128)
	for i := range val {
		val[i] = float64(i) * 1.5
	}
	var store, hit []float64
	for r := 0; r < layerRounds; r++ {
		dir, err := os.MkdirTemp(root, "layer-")
		if err != nil {
			panic(err)
		}
		keys := make([]memo.Key, entries)
		for i := range keys {
			keys[i] = memo.NewKey("perfbench-layer").Int(i).Key()
		}
		c, err := memo.New(dir)
		if err != nil {
			panic(err)
		}
		store = append(store, timed(func() {
			for _, k := range keys {
				memo.Store(c, k, val)
			}
		})/entries/1e3)
		warm, err := memo.New(dir)
		if err != nil {
			panic(err)
		}
		hit = append(hit, timed(func() {
			for _, k := range keys {
				if _, ok := memo.Lookup[[]float64](warm, k); !ok {
					panic(fmt.Sprintf("memo: stored key %d missed", r))
				}
			}
		})/entries/1e3)
		if err := os.RemoveAll(dir); err != nil {
			panic(err)
		}
	}
	out.set("memo.store_us", median(store), "us")
	out.set("memo.hit_us", median(hit), "us")
}
