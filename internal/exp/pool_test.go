package exp

import (
	"fmt"
	"testing"

	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/stats"
)

// poolWorkload drives a small mixed load/store workload over m and returns
// the final state digest. Everything derives from the explicit seed, so two
// machines in the same initial state must produce bit-identical digests.
// It returns errors instead of failing the test because sweep points run on
// worker goroutines.
func poolWorkload(m *machine.Machine, seed uint64) (uint64, error) {
	buf := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
	rng := stats.NewRNG(seed)
	for a := 0; a < 4; a++ {
		core := rng.Intn(knl.NumCores)
		ops := make([]int, 16)
		for i := range ops {
			ops[i] = rng.Intn(2)<<8 | rng.Intn(4)
		}
		pl := knl.Place{Tile: core / knl.CoresPerTile, Core: core}
		s := &machine.Script{}
		for _, op := range ops {
			if op&0x100 != 0 {
				s.Store(buf, op&0xff)
			} else {
				s.Load(buf, op&0xff)
			}
		}
		m.SpawnKernel(pl, s.Program())
	}
	if _, err := m.Run(); err != nil {
		return 0, fmt.Errorf("pool workload (seed %d): %w", seed, err)
	}
	return m.StateDigest(), nil
}

// TestMachinePoolRecyclesAndResets proves the serial pool contract: Put
// followed by a matching Get hands back the same machine object, and the
// recycled machine replays a workload bit-identically to its first life.
func TestMachinePoolRecyclesAndResets(t *testing.T) {
	cfg := knl.DefaultConfig()
	p := machine.DefaultParams()
	var pool MachinePool

	m1 := pool.Get(cfg, p, 1)
	d1, err := poolWorkload(m1, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)

	m2 := pool.Get(cfg, p, 1)
	if m2 != m1 {
		t.Fatal("pool built a new machine instead of recycling the returned one")
	}
	d2, err := poolWorkload(m2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("recycled machine digest %#x, first life %#x", d2, d1)
	}

	// A Get for a different configuration must not disturb the pooled one.
	pool.Put(m2)
	other := pool.Get(cfg.WithModes(knl.Quadrant, knl.Flat), p, 1)
	if other == m2 {
		t.Fatal("pool recycled a machine across configurations")
	}
}

// TestMachinePoolConcurrentSweep runs a sweep over per-worker pools — the
// Run idiom the bench package uses — and asserts every point's digest
// equals a fresh, serially built machine's. Under -race this also proves
// that per-worker pooling introduces no sharing between concurrent points;
// mixing two configurations exercises both the recycle-hit and the
// build-fresh path of Get.
func TestMachinePoolConcurrentSweep(t *testing.T) {
	cfgs := []knl.Config{
		knl.DefaultConfig(),
		knl.DefaultConfig().WithModes(knl.Quadrant, knl.Flat),
	}
	p := machine.DefaultParams()
	const n = 24
	const base = 20260807

	expected := make([]uint64, n)
	for i := range expected {
		seed := PointSeed(base, i)
		m := machine.NewSeededWithParams(cfgs[i%len(cfgs)], p, seed)
		d, err := poolWorkload(m, seed)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = d
	}

	type res struct {
		digest uint64
		err    error
	}
	got := Run(4, n, func(pool *MachinePool, i int) res {
		seed := PointSeed(base, i)
		m := pool.Get(cfgs[i%len(cfgs)], p, seed)
		d, err := poolWorkload(m, seed)
		pool.Put(m)
		return res{digest: d, err: err}
	})
	for i, r := range got {
		if r.err != nil {
			t.Errorf("point %d: %v", i, r.err)
			continue
		}
		if r.digest != expected[i] {
			t.Errorf("point %d (%s): pooled digest %#x, fresh %#x",
				i, cfgs[i%len(cfgs)].Name(), r.digest, expected[i])
		}
	}
}
