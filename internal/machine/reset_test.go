package machine

import (
	"testing"

	"knlcap/internal/knl"
)

// TestResetReplayDigest proves the Machine.Reset contract over every
// cluster-mode x memory-mode combination: a machine that ran one workload,
// was Reset, and then ran a second workload must be bit-identical — state
// digest, event count, end time — to a freshly constructed machine running
// only the second workload. This is what lets exp.MachinePool recycle
// machines across sweep points without perturbing results.
func TestResetReplayDigest(t *testing.T) {
	for _, cm := range knl.ClusterModes {
		for _, mm := range []knl.MemoryMode{knl.Flat, knl.CacheMode, knl.Hybrid} {
			cfg := knl.DefaultConfig().WithModes(cm, mm)
			d1, e1, t1 := digestWorkload(t, cfg, 7)

			m := NewWithParams(cfg, DefaultParams())
			runDigestOps(t, m, 13) // a different workload first; Reset must erase it
			m.Reset(DefaultParams(), cfg.YieldSeed)
			d2, e2, t2 := runDigestOps(t, m, 7)

			if d1 != d2 {
				t.Errorf("%s: reset replay digest %#x, fresh %#x", cfg.Name(), d2, d1)
			}
			if e1 != e2 {
				t.Errorf("%s: reset replay events %d, fresh %d", cfg.Name(), e2, e1)
			}
			if t1 != t2 {
				t.Errorf("%s: reset replay end %v, fresh %v", cfg.Name(), t2, t1)
			}
		}
	}
}

// TestResetRejectsNonQuiescent checks that Reset refuses a machine whose
// simulation never ran: live processes would leak across the recycle.
func TestResetRejectsNonQuiescent(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	spawnScript(m, place(0), func(s *Script) { s.Load(b, 0) })
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a machine with a pending process did not panic")
		}
	}()
	m.Reset(DefaultParams(), 1)
}
