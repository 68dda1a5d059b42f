package bench

import (
	"reflect"
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
)

// chaseRun executes one chase under explicit params and returns the sample
// plus the number of events the simulator actually scheduled — the firing
// probe: a converged run must simulate far fewer events than an exact one.
func chaseRun(t *testing.T, o Options, owner int, st cache.State, flush bool) (Sample, uint64) {
	t.Helper()
	cfg := knl.DefaultConfig()
	m := machine.NewWithParams(cfg, o.params())
	b := m.Alloc.MustAlloc(knl.DDR, 0, int64(o.ChaseLen)*knl.LineSize)
	prime := func() { m.Prime(b, owner, st) }
	if flush {
		prime = func() { m.FlushBuffer(b) }
	}
	s := chase(m, 0, b, o, prime)
	if m.Env.OnWait != nil {
		t.Fatal("chase left the OnWait hook installed")
	}
	return s, m.Env.Seq()
}

// TestChaseConvergedBitIdentical is the white-box half of the golden A/B
// contract: with jitter off, the gated chase must return bit-identical
// samples to the exact loop while genuinely skipping simulation, across
// local, same-tile, remote, and memory-backed (flushed) access patterns.
func TestChaseConvergedBitIdentical(t *testing.T) {
	base := DefaultOptions()
	base.Averages, base.Passes = 8, 4
	base.NoJitter = true
	cases := []struct {
		name  string
		owner int
		st    cache.State
		flush bool
	}{
		{"local-E", 0, cache.Exclusive, false},
		{"tile-M", 1, cache.Modified, false},
		{"remote-M", knl.NumCores / 2, cache.Modified, false},
		{"remote-S", knl.NumCores - 2, cache.Shared, false},
		{"mem-flush", 0, cache.Invalid, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact := base
			exact.ConvergeAfter = 0
			gated := base
			gated.ConvergeAfter = 3
			sOff, seqOff := chaseRun(t, exact, tc.owner, tc.st, tc.flush)
			sOn, seqOn := chaseRun(t, gated, tc.owner, tc.st, tc.flush)
			if !reflect.DeepEqual(sOff, sOn) {
				t.Errorf("gated sample differs from exact:\noff %+v\non  %+v", sOff, sOn)
			}
			if seqOn*2 >= seqOff {
				t.Errorf("gate did not fire: %d events gated vs %d exact", seqOn, seqOff)
			}
		})
	}
}

// TestChaseJitteredGateIsInert: with jitter on, pass values never repeat,
// so the gate must never fire — and therefore cannot change anything.
func TestChaseJitteredGateIsInert(t *testing.T) {
	base := DefaultOptions()
	base.Averages, base.Passes = 6, 3
	exact := base
	exact.ConvergeAfter = 0
	gated := base
	gated.ConvergeAfter = 3
	sOff, seqOff := chaseRun(t, exact, knl.NumCores/2, cache.Modified, false)
	sOn, seqOn := chaseRun(t, gated, knl.NumCores/2, cache.Modified, false)
	if !reflect.DeepEqual(sOff, sOn) {
		t.Errorf("jittered gated sample differs:\noff %+v\non  %+v", sOff, sOn)
	}
	if seqOff != seqOn {
		t.Errorf("jittered gate fired: %d events gated vs %d exact", seqOn, seqOff)
	}
}

// TestRunConvergedBitIdentical covers the iteration-style gate (copy and
// multi-line kernels) the same way: identical recorded values, fewer events.
func TestRunConvergedBitIdentical(t *testing.T) {
	cfg := knl.DefaultConfig()
	o := DefaultOptions()
	o.NoJitter = true
	run := func(k int) ([]float64, uint64) {
		m := machine.NewWithParams(cfg, o.params())
		src := m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
		dst := m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
		vals := make([]float64, 0, 40)
		owner := knl.NumCores / 2
		runConverged(m, knl.Place{Tile: 0, Core: 0}, k, 40,
			func() {
				m.Prime(src, owner, cache.Exclusive)
				m.Prime(dst, 0, cache.Modified)
			},
			machine.KernelOp{Kind: machine.StreamCopy, Dst: dst, Src: src, N: 8},
			func(elapsed float64) { vals = append(vals, elapsed) })
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return vals, m.Env.Seq()
	}
	exact, seqOff := run(0)
	gated, seqOn := run(3)
	if !reflect.DeepEqual(exact, gated) {
		t.Errorf("gated elapsed values differ from exact:\noff %v\non  %v", exact, gated)
	}
	if seqOn*2 >= seqOff {
		t.Errorf("gate did not fire: %d events gated vs %d exact", seqOn, seqOff)
	}
}

// TestChaseOddChaseLenFallsBack: when ChaseLen is not a multiple of the
// buffer's line count the canonical profile is undefined and chase must
// silently use the exact loop.
func TestChaseOddChaseLenFallsBack(t *testing.T) {
	cfg := knl.DefaultConfig()
	o := DefaultOptions()
	o.NoJitter = true
	o.Averages, o.Passes, o.ChaseLen = 4, 2, 33
	run := func(k int) Sample {
		m := machine.NewWithParams(cfg, o.params())
		// 32-line buffer, 33 accesses per pass: 33 % 32 != 0.
		b := m.Alloc.MustAlloc(knl.DDR, 0, 32*knl.LineSize)
		po := o
		po.ConvergeAfter = k
		return chase(m, 0, b, po, func() { m.Prime(b, 1, cache.Exclusive) })
	}
	if off, on := run(0), run(3); !reflect.DeepEqual(off, on) {
		t.Errorf("fallback sample differs: off %+v on %+v", off, on)
	}
}

// BenchmarkChasePass pins the cost of the exact chase loop with machine
// construction excluded; run with -benchmem to confirm the measurement
// loops stay allocation-free after the up-front sample and permutation
// allocations (allocs/op must not scale with Averages*Passes).
func BenchmarkChasePass(b *testing.B) {
	cfg := knl.DefaultConfig()
	o := DefaultOptions()
	o.NoJitter = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := machine.NewWithParams(cfg, o.params())
		buf := m.Alloc.MustAlloc(knl.DDR, 0, int64(o.ChaseLen)*knl.LineSize)
		b.StartTimer()
		chase(m, 0, buf, o, func() { m.Prime(buf, 1, cache.Exclusive) })
	}
}

// TestChaseAllocsFlat is the allocation regression gate behind satellite 1:
// the allocations of a chase must not grow with the pass count — avgs is
// preallocated and the per-pass permutation is refilled in place, so a
// 16x longer measurement allocates the same number of objects.
func TestChaseAllocsFlat(t *testing.T) {
	cfg := knl.DefaultConfig()
	run := func(averages, passes int) float64 {
		o := DefaultOptions()
		o.NoJitter = true
		o.Averages, o.Passes = averages, passes
		return testing.AllocsPerRun(3, func() {
			m := machine.NewWithParams(cfg, o.params())
			buf := m.Alloc.MustAlloc(knl.DDR, 0, int64(o.ChaseLen)*knl.LineSize)
			chase(m, 0, buf, o, func() { m.Prime(buf, 1, cache.Exclusive) })
		})
	}
	short := run(2, 2)
	long := run(8, 8)
	// The simulator may grow its event pool once under the longer run;
	// allow a small constant slack but nothing proportional to 16x work.
	if long > short+16 {
		t.Errorf("chase allocations scale with passes: %v allocs at 2x2, %v at 8x8", short, long)
	}
}
