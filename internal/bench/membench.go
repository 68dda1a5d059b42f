package bench

import (
	"fmt"

	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/memo"
	"knlcap/internal/stats"
)

// StreamKernel is one of the four sequential-access patterns of Section V-A.
type StreamKernel int

const (
	KernelCopy  StreamKernel = iota // a[i] = b[i]
	KernelRead                      // a = b[i]
	KernelWrite                     // b[i] = a
	KernelTriad                     // a[i] = b[i] + s*c[i]
)

func (k StreamKernel) String() string {
	switch k {
	case KernelCopy:
		return "copy"
	case KernelRead:
		return "read"
	case KernelWrite:
		return "write"
	case KernelTriad:
		return "triad"
	default:
		return fmt.Sprintf("StreamKernel(%d)", int(k))
	}
}

// streams returns how many buffers the kernel touches per iteration.
func (k StreamKernel) streams() int {
	switch k {
	case KernelCopy:
		return 2
	case KernelTriad:
		return 3
	default:
		return 1
	}
}

// CountedBytesPerLine returns the STREAM counting convention for the kernel.
func (k StreamKernel) CountedBytesPerLine() float64 {
	switch k {
	case KernelCopy:
		return 2 * knl.LineSize
	case KernelTriad:
		return 3 * knl.LineSize
	default:
		return knl.LineSize
	}
}

// MemBWPoint is one memory-bandwidth measurement.
type MemBWPoint struct {
	Config   knl.Config
	Kernel   StreamKernel
	Kind     knl.MemKind
	NT       bool
	Threads  int
	Cores    int
	Schedule knl.Schedule
	GBs      float64 // median aggregate counted bandwidth
}

// threadBufs are one thread's buffer pool.
type threadBufs struct {
	dst, src, src2 []memmode.Buffer
}

// allocPool allocates the per-thread buffer pools. In cache mode buffers
// come from DDR (there is no flat MCDRAM) and the pool is sized so the
// *active* working set of the kernel (streams buffers per iteration) is
// ~2x the modeled side cache, as in the paper — the hit/miss mix is the
// effect being measured.
func allocPool(m *machine.Machine, cfg knl.Config, places []knl.Place,
	kind knl.MemKind, o Options, k StreamKernel) []threadBufs {
	streams := k.streams()
	lines := o.StreamLines
	nbuf := o.BuffersPerThread
	// Cache mode has no flat MCDRAM; hybrid keeps its flat partition.
	if cfg.Memory == knl.CacheMode && kind == knl.MCDRAM {
		kind = knl.DDR
	}
	sideCached := cfg.Memory != knl.Flat && kind == knl.DDR
	if sideCached {
		perBuf := int64(lines) * knl.LineSize
		footprint := int64(len(places)) * perBuf * int64(streams)
		want := int((2*cfg.MCDRAMCacheBytes() + footprint - 1) / footprint)
		if want > nbuf {
			nbuf = want
		}
	}
	pools := make([]threadBufs, len(places))
	for i, pl := range places {
		aff := 0
		if cfg.Cluster.NUMAVisible() {
			aff = knl.NewFloorplan(cfg.YieldSeed).TileCluster(cfg.Cluster, pl.Tile)
		}
		for b := 0; b < nbuf; b++ {
			pools[i].dst = append(pools[i].dst, m.Alloc.MustAlloc(kind, aff, int64(lines)*knl.LineSize))
			pools[i].src = append(pools[i].src, m.Alloc.MustAlloc(kind, aff, int64(lines)*knl.LineSize))
			pools[i].src2 = append(pools[i].src2, m.Alloc.MustAlloc(kind, aff, int64(lines)*knl.LineSize))
		}
	}
	if sideCached {
		warmSideCache(m, pools, k)
	}
	return pools
}

// warmSideCache puts the MCDRAM side cache into its steady state at zero
// simulated cost: every buffer's tags are filled in allocation order (the
// direct-mapped cache then holds the most recent ~capacity of the working
// set), destination lines dirty as they would be under a write workload.
// Without this, short measured windows would see an artificially cold or
// artificially small footprint instead of the paper's randomized steady
// state.
func warmSideCache(m *machine.Machine, pools []threadBufs, k StreamKernel) {
	touch := func(b memmode.Buffer, dirty bool) {
		for li := 0; li < b.NumLines(); li++ {
			l := b.Line(li)
			place := m.Mapper.Place(knl.DDR, b.Affinity, l)
			edc := m.Mapper.CacheEDC(place.Channel, l)
			m.Policy.Fill(edc, l)
			if dirty {
				m.Policy.MarkDirty(edc, l)
			}
		}
	}
	for bi := 0; bi < len(pools[0].dst); bi++ {
		for _, pool := range pools {
			switch k {
			case KernelRead:
				touch(pool.src[bi], false)
			case KernelWrite:
				touch(pool.dst[bi], true)
			case KernelCopy:
				touch(pool.dst[bi], true)
				touch(pool.src[bi], false)
			case KernelTriad:
				touch(pool.dst[bi], true)
				touch(pool.src[bi], false)
				touch(pool.src2[bi], false)
			}
		}
	}
}

// kernelOp builds the KernelOp for one kernel iteration: full buffers from
// line 0, lengths clipped to the shortest operand, reads always vectorized.
func kernelOp(k StreamKernel, pool threadBufs, pick int, nt bool) machine.KernelOp {
	switch k {
	case KernelCopy:
		dst, src := pool.dst[pick], pool.src[pick]
		n := dst.NumLines()
		if s := src.NumLines(); s < n {
			n = s
		}
		return machine.KernelOp{Kind: machine.StreamCopy, Dst: dst, Src: src, N: n, NT: nt}
	case KernelRead:
		src := pool.src[pick]
		return machine.KernelOp{Kind: machine.StreamRead, Src: src, N: src.NumLines(), Vector: true}
	case KernelWrite:
		dst := pool.dst[pick]
		return machine.KernelOp{Kind: machine.StreamWrite, Dst: dst, N: dst.NumLines(), NT: nt}
	default: // KernelTriad
		dst, b, c := pool.dst[pick], pool.src[pick], pool.src2[pick]
		n := dst.NumLines()
		if s := b.NumLines(); s < n {
			n = s
		}
		if s := c.NumLines(); s < n {
			n = s
		}
		return machine.KernelOp{Kind: machine.StreamTriad, Dst: dst, Src: b, Src2: c, N: n, NT: nt}
	}
}

// MeasureMemBandwidth runs one memory-bandwidth configuration: `threads`
// threads under `sched`, each running the kernel over randomly selected
// buffers from its pool every iteration. It returns the median aggregate
// counted bandwidth in GB/s.
func MeasureMemBandwidth(cfg knl.Config, o Options, k StreamKernel,
	kind knl.MemKind, nt bool, threads int, sched knl.Schedule) MemBWPoint {
	key := o.KeyFor("membw", cfg).
		Int(int(k)).Int(int(kind)).Bool(nt).Int(threads).Int(int(sched)).Key()
	if v, ok := memo.Lookup[MemBWPoint](o.Memo, key); ok {
		return v
	}
	m := o.acquire(cfg)
	places := placesFor(sched, threads)
	pools := allocPool(m, cfg, places, kind, o, k)
	rng := stats.NewRNG(o.Seed ^ 0x5eed)
	picks := make([][]int, o.Iterations)
	for it := range picks {
		picks[it] = make([]int, threads)
		for r := range picks[it] {
			picks[it][r] = rng.Intn(len(pools[0].dst))
		}
	}
	setup := func(iter int) {
		// Reads must come from memory: drop L1/L2 copies of the buffers
		// that will be touched this iteration (the side cache, when
		// enabled, keeps its state — that is the effect being measured).
		for r := range places {
			pick := picks[iter][r]
			m.FlushBuffer(pools[r].src[pick])
			m.FlushBuffer(pools[r].src2[pick])
			m.FlushBuffer(pools[r].dst[pick])
		}
	}
	maxes := RunStreamWindows(m, places, o, setup, func(rank, iter int) machine.KernelOp {
		return kernelOp(k, pools[rank], picks[iter][rank], nt)
	})
	counted := float64(threads) * float64(o.StreamLines) * k.CountedBytesPerLine()
	vals := make([]float64, len(maxes))
	for i, d := range maxes {
		vals[i] = counted / d
	}
	o.release(m)
	out := MemBWPoint{
		Config: cfg, Kernel: k, Kind: kind, NT: nt,
		Threads: threads, Cores: knl.CoresUsed(places), Schedule: sched,
		GBs: stats.Median(vals),
	}
	memo.Store(o.Memo, key, out)
	return out
}

// MeasureStreamPeak runs the STREAM-style measurement: one long untimed-
// window run, sequential buffers, aggregate bytes over total time. It is
// the "peak" companion number reported next to the medians in Table II.
func MeasureStreamPeak(cfg knl.Config, o Options, k StreamKernel,
	kind knl.MemKind, threads int, sched knl.Schedule) float64 {
	key := o.KeyFor("streampeak", cfg).
		Int(int(k)).Int(int(kind)).Int(threads).Int(int(sched)).Key()
	if v, ok := memo.Lookup[float64](o.Memo, key); ok {
		return v
	}
	m := o.acquire(cfg)
	places := placesFor(sched, threads)
	pools := allocPool(m, cfg, places, kind, o, k)
	var end float64
	iters := o.Iterations / 2
	if iters < 3 {
		iters = 3
	}
	for r := range places {
		r := r
		it := 0
		m.SpawnKernel(places[r], func(now float64, _ uint64) (machine.KernelOp, bool) {
			if it >= iters {
				if now > end {
					end = now
				}
				return machine.KernelOp{}, false
			}
			pick := it % len(pools[r].src)
			m.FlushBuffer(pools[r].src[pick])
			m.FlushBuffer(pools[r].src2[pick])
			it++
			return kernelOp(k, pools[r], pick, true), true
		})
	}
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	total := float64(threads) * float64(iters) * float64(o.StreamLines) * k.CountedBytesPerLine()
	o.release(m)
	peak := total / end
	memo.Store(o.Memo, key, peak)
	return peak
}

// MaxMedianBandwidth sweeps thread counts and schedules and returns the
// best per-configuration median, which is what Table II reports ("the
// maximum median achieved across a set of experiments").
func MaxMedianBandwidth(cfg knl.Config, o Options, k StreamKernel,
	kind knl.MemKind, nt bool, threadCounts []int, scheds []knl.Schedule) MemBWPoint {
	if len(threadCounts) == 0 {
		threadCounts = []int{16, 64, 128}
	}
	if len(scheds) == 0 {
		scheds = []knl.Schedule{knl.FillTiles, knl.Compact}
	}
	kw := o.KeyFor("maxmedian-bw", cfg).
		Int(int(k)).Int(int(kind)).Bool(nt).Ints(threadCounts).Int(len(scheds))
	for _, sc := range scheds {
		kw = kw.Int(int(sc))
	}
	pts := exp.RunMemo(o.Parallel, o.Memo, kw.Key(),
		len(scheds)*len(threadCounts),
		func(pool *exp.MachinePool, i int) MemBWPoint {
			po := o
			po.pool = pool
			sc := scheds[i/len(threadCounts)]
			n := threadCounts[i%len(threadCounts)]
			return MeasureMemBandwidth(cfg, po, k, kind, nt, n, sc)
		})
	var best MemBWPoint
	for _, p := range pts {
		if p.GBs > best.GBs {
			best = p
		}
	}
	return best
}

// TriadSweep regenerates one panel of Figure 9: triad bandwidth versus
// thread count for the given schedule and both memories.
func TriadSweep(cfg knl.Config, o Options, sched knl.Schedule, counts []int) []MemBWPoint {
	if len(counts) == 0 {
		counts = []int{1, 4, 8, 16, 32, 64, 128, 256}
	}
	kinds := []knl.MemKind{knl.MCDRAM, knl.DDR}
	key := o.KeyFor("fig9-triad", cfg).Int(int(sched)).Ints(counts).Key()
	pts := exp.RunMemo(o.Parallel, o.Memo, key,
		len(kinds)*len(counts),
		func(pool *exp.MachinePool, i int) MemBWPoint {
			po := o
			po.pool = pool
			return MeasureMemBandwidth(cfg, po, KernelTriad, kinds[i/len(counts)], true,
				counts[i%len(counts)], sched)
		})
	return pts
}
