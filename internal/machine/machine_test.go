package machine

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
)

// noJitter returns a machine with jitter disabled for exact-cost assertions.
func noJitter(cfg knl.Config) *Machine {
	p := DefaultParams()
	p.JitterFrac = 0
	return NewWithParams(cfg, p)
}

// runOne spawns the kernel script built by build at the given place and
// runs the machine to completion, returning the end time.
func runOne(t *testing.T, m *Machine, place knl.Place, build func(s *Script)) float64 {
	t.Helper()
	spawnScript(m, place, build)
	end, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// spawnScript spawns the kernel script built by build at the given place.
func spawnScript(m *Machine, place knl.Place, build func(s *Script)) {
	s := &Script{}
	build(s)
	m.SpawnKernel(place, s.Program())
}

// timed appends the ops added by add to s and passes their elapsed
// simulated time to record.
func timed(m *Machine, s *Script, add func(), record func(d float64)) {
	var start float64
	s.Do(func() { start = m.Env.Now() })
	add()
	s.Do(func() { record(m.Env.Now() - start) })
}

// atEnd appends a host action recording the script's completion time into
// *latest when it is the latest seen so far.
func atEnd(m *Machine, s *Script, latest *float64) {
	s.Do(func() {
		if at := m.Env.Now(); at > *latest {
			*latest = at
		}
	})
}

// readOp is a vectorized read stream over the whole buffer.
func readOp(b memmode.Buffer) KernelOp {
	return KernelOp{Kind: StreamRead, Src: b, N: b.NumLines(), Vector: true}
}

// writeOp is a write stream over the whole buffer.
func writeOp(b memmode.Buffer, nt bool) KernelOp {
	return KernelOp{Kind: StreamWrite, Dst: b, N: b.NumLines(), NT: nt}
}

// copyOp copies the common line count of src into dst.
func copyOp(dst, src memmode.Buffer, nt bool) KernelOp {
	return KernelOp{Kind: StreamCopy, Dst: dst, Src: src, N: min(dst.NumLines(), src.NumLines()), NT: nt}
}

// triadOp computes dst[i] = b[i] + s*c[i] over the common line count.
func triadOp(dst, b, c memmode.Buffer, nt bool) KernelOp {
	n := min(dst.NumLines(), b.NumLines(), c.NumLines())
	return KernelOp{Kind: StreamTriad, Dst: dst, Src: b, Src2: c, N: n, NT: nt}
}

func place(core int) knl.Place {
	return knl.Place{Tile: core / knl.CoresPerTile, Core: core, HT: 0}
}

func TestL1HitCost(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
	m.Prime(b, 0, cache.Exclusive)
	var d float64
	runOne(t, m, place(0), func(s *Script) {
		timed(m, s, func() { s.Load(b, 0) }, func(e float64) { d = e })
	})
	if d != m.P.L1HitNs {
		t.Errorf("L1 hit = %v ns, want %v", d, m.P.L1HitNs)
	}
}

func TestTileHitCostsByState(t *testing.T) {
	// Reading the sibling core's data: M=34, E=18, S/F=14 (Table I).
	for _, tc := range []struct {
		st   cache.State
		want float64
	}{
		{cache.Modified, 34},
		{cache.Exclusive, 18},
		{cache.Shared, 14},
		{cache.Forward, 14},
	} {
		m := noJitter(knl.DefaultConfig())
		b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
		m.Prime(b, 1, tc.st) // sibling core of core 0 (same tile 0)
		var d float64
		runOne(t, m, place(0), func(s *Script) {
			timed(m, s, func() { s.Load(b, 0) }, func(e float64) { d = e })
		})
		if d != tc.want {
			t.Errorf("tile hit %v = %v ns, want %v", tc.st, d, tc.want)
		}
	}
}

func TestRemoteLatencyBands(t *testing.T) {
	// Cache-to-cache remote transfers must land in the paper's Table I
	// bands: M 107-122, E 98-114 (SNC4: we allow the full 95-130 envelope
	// including distance spread), with E <= M and S/F close to E.
	for _, cm := range knl.ClusterModes {
		cfg := knl.DefaultConfig().WithModes(cm, knl.Flat)
		results := map[cache.State]float64{}
		for _, st := range []cache.State{cache.Modified, cache.Exclusive, cache.Forward} {
			m := noJitter(cfg)
			b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
			owner := 20 // a core on a distinct tile (tile 10)
			m.Prime(b, owner, st)
			var d float64
			runOne(t, m, place(0), func(s *Script) {
				timed(m, s, func() { s.Load(b, 0) }, func(e float64) { d = e })
			})
			results[st] = d
			if d < 90 || d > 135 {
				t.Errorf("%v remote %v = %v ns, want in [90,135]", cm, st, d)
			}
		}
		if results[cache.Exclusive] > results[cache.Modified] {
			t.Errorf("%v: remote E (%v) slower than M (%v)", cm,
				results[cache.Exclusive], results[cache.Modified])
		}
		if results[cache.Forward] > results[cache.Exclusive] {
			t.Errorf("%v: remote F (%v) slower than E (%v)", cm,
				results[cache.Forward], results[cache.Exclusive])
		}
	}
}

func TestRemoteReadSharesLine(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
	m.Prime(b, 20, cache.Modified)
	runOne(t, m, place(0), func(s *Script) { s.Load(b, 0) })
	if st := m.LineState(10, b.Line(0)); st != cache.Shared {
		t.Errorf("owner tile state after forward = %v, want S", st)
	}
	if st := m.LineState(0, b.Line(0)); st != cache.Forward {
		t.Errorf("requester tile state = %v, want F", st)
	}
}

func TestSecondLoadIsL1Hit(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
	m.Prime(b, 20, cache.Exclusive)
	var d1, d2 float64
	runOne(t, m, place(0), func(s *Script) {
		timed(m, s, func() { s.Load(b, 0) }, func(e float64) { d1 = e })
		timed(m, s, func() { s.Load(b, 0) }, func(e float64) { d2 = e })
	})
	if diff := d2 - m.P.L1HitNs; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("second load = %v, want L1 hit %v (first was %v)", d2, m.P.L1HitNs, d1)
	}
}

func TestMemoryLatencyBands(t *testing.T) {
	// Flat mode: DRAM ~130-146, MCDRAM ~160-175 (Table II).
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat)
	for _, tc := range []struct {
		kind   knl.MemKind
		lo, hi float64
	}{
		{knl.DDR, 125, 150},
		{knl.MCDRAM, 155, 180},
	} {
		m := noJitter(cfg)
		b := m.Alloc.MustAlloc(tc.kind, 0, 64*256)
		var sum float64
		runOne(t, m, place(0), func(s *Script) {
			for i := 0; i < 256; i++ {
				timed(m, s, func() { s.Load(b, i) }, func(e float64) { sum += e })
			}
		})
		avg := sum / 256
		if avg < tc.lo || avg > tc.hi {
			t.Errorf("%v latency = %.1f ns, want in [%v,%v]", tc.kind, avg, tc.lo, tc.hi)
		}
	}
}

func TestMCDRAMSlowerLatencyThanDDR(t *testing.T) {
	// The paper's headline subtlety: MCDRAM has *higher* latency.
	cfg := knl.DefaultConfig()
	lat := func(kind knl.MemKind) float64 {
		m := noJitter(cfg)
		b := m.Alloc.MustAlloc(kind, 0, 64*128)
		var sum float64
		runOne(t, m, place(0), func(s *Script) {
			for i := 0; i < 128; i++ {
				timed(m, s, func() { s.Load(b, i) }, func(e float64) { sum += e })
			}
		})
		return sum / 128
	}
	if d, mc := lat(knl.DDR), lat(knl.MCDRAM); mc <= d {
		t.Errorf("MCDRAM latency %v <= DDR %v", mc, d)
	}
}

func TestCacheModeLatency(t *testing.T) {
	// Cache mode: ~158-178 ns with a mix of MCDRAM hits and DDR misses.
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode)
	m := noJitter(cfg)
	// Working set 2x the modeled MCDRAM cache so both hits and misses occur.
	ws := 2 * cfg.MCDRAMCacheBytes()
	b := m.Alloc.MustAlloc(knl.DDR, 0, ws)
	nl := b.NumLines()
	var sum float64
	const samples = 400
	runOne(t, m, place(0), func(s *Script) {
		// Touch a spread of lines twice: first pass fills, second measures
		// the hit/miss mix.
		stride := nl / samples
		for pass := 0; pass < 2; pass++ {
			s.Do(func() { sum = 0 })
			for i := 0; i < samples; i++ {
				s.Do(func() { m.FlushLine(b.Line(i * stride)) }) // keep it out of L1/L2
				timed(m, s, func() { s.Load(b, i*stride) }, func(e float64) { sum += e })
			}
		}
	})
	avg := sum / samples
	if avg < 150 || avg > 200 {
		t.Errorf("cache-mode latency = %.1f ns, want in [150,200]", avg)
	}
}

func TestContentionLinear(t *testing.T) {
	// 1:N contention on one Modified line: T_C(N) ~= alpha + beta*N with
	// beta ~ 34 ns (Table I) emerging from CHA + owner-port serialization.
	counts := []int{1, 2, 4, 8, 16, 24, 32}
	perN := map[int]float64{}
	for _, n := range counts {
		m := noJitter(knl.DefaultConfig())
		shared := m.Alloc.MustAlloc(knl.DDR, 0, 64)
		m.Prime(shared, 0, cache.Modified)
		done := 0.0
		for i := 0; i < n; i++ {
			core := 2 + i*2%(knl.NumCores-2) // distinct tiles, avoiding owner
			local := m.Alloc.MustAlloc(knl.DDR, 0, 64)
			spawnScript(m, place(core), func(s *Script) {
				s.Load(shared, 0)
				s.Store(local, 0)
				atEnd(m, s, &done)
			})
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		perN[n] = done
	}
	// Fit beta over the measured points.
	var xs, ys []float64
	for _, n := range counts {
		xs = append(xs, float64(n))
		ys = append(ys, perN[n])
	}
	beta := (perN[32] - perN[8]) / 24
	if beta < 20 || beta > 50 {
		t.Errorf("contention slope beta = %.1f ns, want ~34 (points %v %v)", beta, xs, ys)
	}
	if perN[32] <= perN[4] {
		t.Error("contention must grow with N")
	}
}

func TestSingleThreadRemoteCopyBandwidth(t *testing.T) {
	// Remote cache-to-cache copy: ~7.5 GB/s (E), ~6.7 (M); read ~2.5 GB/s.
	for _, tc := range []struct {
		st      cache.State
		copyOp  bool
		lo, hi  float64 // GB/s of payload
		comment string
	}{
		{cache.Exclusive, true, 6.3, 8.7, "copy E"},
		{cache.Modified, true, 5.5, 7.8, "copy M"},
		{cache.Exclusive, false, 2.0, 3.2, "vector read"},
	} {
		m := noJitter(knl.DefaultConfig())
		const lines = 1024 // 64 KB message
		src := m.Alloc.MustAlloc(knl.DDR, 0, 64*lines)
		dst := m.Alloc.MustAlloc(knl.DDR, 0, 64*lines)
		m.Prime(src, 20, tc.st)
		m.Prime(dst, 0, cache.Modified) // local destination, writable
		var dur float64
		op := readOp(src)
		if tc.copyOp {
			op = copyOp(dst, src, false)
		}
		dur = runOne(t, m, place(0), func(s *Script) { s.Op(op, nil) })
		gbs := float64(lines*64) / dur
		if gbs < tc.lo || gbs > tc.hi {
			t.Errorf("%s = %.2f GB/s, want in [%v,%v]", tc.comment, gbs, tc.lo, tc.hi)
		}
	}
}

func TestSameTileCopyBandwidth(t *testing.T) {
	// Table I: tile copy 6.7 (M) / 9.2 (E) GB/s.
	for _, tc := range []struct {
		st     cache.State
		lo, hi float64
	}{
		{cache.Exclusive, 7.8, 10.5},
		{cache.Modified, 5.8, 7.6},
	} {
		m := noJitter(knl.DefaultConfig())
		const lines = 512
		src := m.Alloc.MustAlloc(knl.DDR, 0, 64*lines)
		dst := m.Alloc.MustAlloc(knl.DDR, 0, 64*lines)
		m.Prime(src, 1, tc.st) // sibling core, same tile
		m.Prime(dst, 0, cache.Modified)
		var dur float64
		dur = runOne(t, m, place(0), func(s *Script) { s.Op(copyOp(dst, src, false), nil) })
		gbs := float64(lines*64) / dur
		if gbs < tc.lo || gbs > tc.hi {
			t.Errorf("tile copy %v = %.2f GB/s, want in [%v,%v]", tc.st, gbs, tc.lo, tc.hi)
		}
	}
}

func TestWordsAndPolling(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	flag := m.Alloc.MustAlloc(knl.DDR, 0, 64)
	var observed uint64
	var wakeAt float64
	spawnScript(m, place(10), func(s *Script) {
		s.WaitWordGE(flag, 0, 7, func(got uint64) {
			observed = got
			wakeAt = m.Env.Now()
		})
	})
	spawnScript(m, place(0), func(s *Script) {
		s.Compute(500)
		s.StoreWord(flag, 0, 7)
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if observed != 7 {
		t.Errorf("poller observed %d, want 7", observed)
	}
	if wakeAt < 500 {
		t.Errorf("poller woke at %v, before the store at 500", wakeAt)
	}
	if wakeAt > 800 {
		t.Errorf("poller woke at %v, too long after the store", wakeAt)
	}
}

func TestAddWordAccumulates(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	acc := m.Alloc.MustAlloc(knl.DDR, 0, 64)
	for i := 0; i < 8; i++ {
		spawnScript(m, place(i*2), func(s *Script) { s.AddWord(acc, 0, 1, nil) })
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.PeekWord(acc, 0); got != 8 {
		t.Errorf("accumulator = %d, want 8", got)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
	m.Prime(b, 20, cache.Shared) // tile 10 S + tile 11 F
	runOne(t, m, place(0), func(s *Script) { s.Store(b, 0) })
	if st := m.LineState(10, b.Line(0)); st != cache.Invalid {
		t.Errorf("sharer tile 10 state = %v, want I", st)
	}
	if st := m.LineState(0, b.Line(0)); st != cache.Modified {
		t.Errorf("writer tile state = %v, want M", st)
	}
}

func TestStoreNTBypassesCaches(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
	m.Prime(b, 20, cache.Modified)
	runOne(t, m, place(0), func(s *Script) { s.StoreNT(b, 0) })
	for tile := 0; tile < m.NumTiles(); tile++ {
		if st := m.LineState(tile, b.Line(0)); st != cache.Invalid {
			t.Errorf("tile %d caches NT-written line in %v", tile, st)
		}
	}
	if m.Mem.DDR[0].LinesWritten()+m.Mem.DDR[1].LinesWritten()+
		m.Mem.DDR[2].LinesWritten()+m.Mem.DDR[3].LinesWritten()+
		m.Mem.DDR[4].LinesWritten()+m.Mem.DDR[5].LinesWritten() == 0 {
		t.Error("NT store reached no DDR channel")
	}
}

func TestPrimeStatesVisible(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 128)
	m.Prime(b, 6, cache.Modified)
	if st := m.LineState(3, b.Line(0)); st != cache.Modified {
		t.Errorf("primed state = %v, want M", st)
	}
	if st := m.L1State(6, b.Line(1)); st != cache.Modified {
		t.Errorf("primed L1 state = %v, want M", st)
	}
	m.Prime(b, 6, cache.Invalid)
	if st := m.LineState(3, b.Line(0)); st != cache.Invalid {
		t.Errorf("flush-primed state = %v, want I", st)
	}
}

func TestFigure4DistanceSpread(t *testing.T) {
	// Latency from core 0 to every other core must show a spread (mesh
	// distance) with all values in the remote band — Figure 4's structure.
	m := noJitter(knl.DefaultConfig())
	var lats []float64
	b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
	spawnScript(m, place(0), func(s *Script) {
		for owner := 2; owner < knl.NumCores; owner += 2 {
			s.Do(func() { m.Prime(b, owner, cache.Exclusive) })
			timed(m, s, func() { s.Load(b, 0) }, func(e float64) { lats = append(lats, e) })
			s.Do(func() { m.FlushLine(b.Line(0)) })
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	min, max := lats[0], lats[0]
	for _, l := range lats {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min < 5 {
		t.Errorf("distance spread %.1f ns too small (min %.1f max %.1f)", max-min, min, max)
	}
	if min < 85 || max > 140 {
		t.Errorf("remote band [%v,%v] outside expectation", min, max)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		m := New(knl.DefaultConfig()) // jitter on: still deterministic
		b := m.Alloc.MustAlloc(knl.DDR, 0, 64*256)
		return runOne(t, m, place(0), func(s *Script) { s.Op(readOp(b), nil) })
	}
	if a, b := run(), run(); a != b {
		t.Errorf("jittered runs differ: %v vs %v", a, b)
	}
}

func TestL2EvictionWritesBack(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	// Write-allocate more than one L2 way set worth of conflicting lines.
	// L2 is 1 MB 16-way: lines mapping to the same set are 1024 lines apart.
	b := m.Alloc.MustAlloc(knl.DDR, 0, 64*1024*20) // 20 conflicting lines per set
	runOne(t, m, place(0), func(s *Script) {
		for i := 0; i < 20; i++ {
			s.Store(b, i*1024)
		}
	})
	var written uint64
	for _, ch := range m.Mem.DDR {
		written += ch.LinesWritten()
	}
	if written == 0 {
		t.Error("evicting 20 dirty conflict lines from a 16-way L2 wrote nothing back")
	}
}

func TestCongestionPairsIndependent(t *testing.T) {
	// Paper Table I: "Congestion (P2P pairs): None". Pairs of cores doing
	// simultaneous transfers on disjoint lines must not slow each other.
	elapsed := func(pairs int) float64 {
		m := noJitter(knl.DefaultConfig())
		var worst float64
		for i := 0; i < pairs; i++ {
			b := m.Alloc.MustAlloc(knl.DDR, 0, 64)
			owner := (2 + 4*i) % knl.NumCores
			reader := (32 + 4*i) % knl.NumCores
			if owner/2 == reader/2 {
				reader += 2
			}
			m.Prime(b, owner, cache.Exclusive)
			spawnScript(m, place(reader), func(s *Script) {
				timed(m, s, func() {
					for k := 0; k < 50; k++ {
						s.Load(b, 0)
						s.Do(func() {
							m.FlushLine(b.Line(0))
							m.Prime(b, owner, cache.Exclusive)
						})
					}
				}, func(d float64) { worst = max(worst, d) })
			})
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return worst
	}
	one := elapsed(1)
	eight := elapsed(8)
	if eight > one*1.25 {
		t.Errorf("8 pairs (%.0f ns) slowed >25%% vs 1 pair (%.0f ns)", eight, one)
	}
}
