package machine

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
)

// digestWorkload drives a mixed workload — loads, stores, NT stores,
// word flags with polling, and a streaming kernel — over a machine and
// returns the final state digest, the event count, and the end time.
// Everything is derived from the explicit seed: two calls with the same
// arguments must produce bit-identical results.
func digestWorkload(t *testing.T, cfg knl.Config, seed uint64) (digest, events uint64, end float64) {
	t.Helper()
	m := NewWithParams(cfg, DefaultParams()) // jitter on: it must be deterministic too
	return runDigestOps(t, m, seed)
}

// runDigestOps drives the digest workload over an existing machine, so
// Reset tests can replay it on a recycled one (see reset_test.go).
func runDigestOps(t *testing.T, m *Machine, seed uint64) (digest, events uint64, end float64) {
	t.Helper()
	var bufs []memmode.Buffer
	for i := 0; i < 4; i++ {
		bufs = append(bufs, m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize))
	}
	flags := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	stream := m.Alloc.MustAlloc(knl.DDR, 0, 64*knl.LineSize)

	rng := stats.NewRNG(seed)
	const actors = 10
	for a := 0; a < actors; a++ {
		core := rng.Intn(knl.NumCores)
		ops := make([]int, 30)
		for i := range ops {
			ops[i] = rng.Intn(3)<<16 | rng.Intn(4)<<8 | rng.Intn(4)
		}
		spawnScript(m, place(core), func(s *Script) {
			lineOps(s, bufs, ops)
			s.AddWord(flags, 0, 1, nil)
		})
	}
	// One streamer and one poller exercise the word store and watchers.
	spawnScript(m, place(0), func(s *Script) {
		s.Op(readOp(stream), nil)
		s.WaitWordGE(flags, 0, actors, nil)
	})
	if _, err := m.Run(); err != nil {
		t.Fatalf("workload (seed %d): %v", seed, err)
	}
	if err := m.CheckPresence(); err != nil {
		t.Fatalf("workload (seed %d): %v", seed, err)
	}
	return m.StateDigest(), m.Env.Seq(), m.Env.Now()
}

// lineOps appends random line ops, each encoded as kind<<16 | buffer<<8 |
// line (kind 0 load, 1 store, otherwise NT store), to s.
func lineOps(s *Script, bufs []memmode.Buffer, ops []int) {
	for _, op := range ops {
		b := bufs[(op>>8)&0xff]
		li := op & 0xff
		switch op >> 16 {
		case 0:
			s.Load(b, li)
		case 1:
			s.Store(b, li)
		default:
			s.StoreNT(b, li)
		}
	}
}

// TestStateDigestDoubleRun executes the same seeded workload twice per
// configuration and asserts bit-identical digests, event counts, and end
// times — the dynamic determinism guarantee the whole reproduction rests
// on. A different seed must give a different digest, showing the equality
// isn't vacuous.
func TestStateDigestDoubleRun(t *testing.T) {
	for _, cfg := range []knl.Config{
		knl.DefaultConfig(),
		knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode),
	} {
		d1, e1, t1 := digestWorkload(t, cfg, 42)
		d2, e2, t2 := digestWorkload(t, cfg, 42)
		if d1 != d2 {
			t.Errorf("%s: digests differ across identical runs: %#x vs %#x", cfg.Name(), d1, d2)
		}
		if e1 != e2 {
			t.Errorf("%s: event counts differ across identical runs: %d vs %d", cfg.Name(), e1, e2)
		}
		if t1 != t2 {
			t.Errorf("%s: end times differ across identical runs: %v vs %v", cfg.Name(), t1, t2)
		}
		d3, _, _ := digestWorkload(t, cfg, 43)
		if d3 == d1 {
			t.Errorf("%s: different seeds produced identical digest %#x", cfg.Name(), d1)
		}
	}
}

// TestStateDigestSensitivity perturbs each class of simulator state in
// turn and asserts the digest moves every time, proving the digest
// actually covers the state rather than hashing a constant.
func TestStateDigestSensitivity(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.Quadrant, knl.CacheMode)
	m := noJitter(cfg)
	b := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
	runOne(t, m, place(0), func(s *Script) {
		for i := 0; i < b.NumLines(); i++ {
			s.Store(b, i)
		}
	})

	prev := m.StateDigest()
	if again := m.StateDigest(); again != prev {
		t.Fatalf("digest not stable without state changes: %#x vs %#x", prev, again)
	}
	step := func(name string, perturb func()) {
		t.Helper()
		perturb()
		cur := m.StateDigest()
		if cur == prev {
			t.Errorf("perturbation %q left the digest unchanged (%#x)", name, prev)
		}
		prev = cur
	}

	l := b.Line(0)
	step("word store", func() { m.setWord(l, m.wordOf(l)^1) })
	step("directory bit", func() { m.dirAdd(l, m.NumTiles()-1) })
	step("L2 tag array", func() { m.tiles[1].l2.Insert(b.Line(1), cache.Shared) })
	step("L1 tag array", func() { m.cores[1].l1.Insert(b.Line(1), cache.Shared) })
	step("watch slot", func() { m.markWatched(b.Line(2)) })
	step("rng state", func() { m.rng.Uint64() })
	step("memory-side cache", func() { m.Policy.Fill(0, b.Line(3)) })
	step("memory channel traffic", func() {
		w := &drainStep{m: m} // one posted line write on DDR channel 0
		w.async[knl.DDR][0] = 1
		m.Env.GoSteps("wb", w)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
