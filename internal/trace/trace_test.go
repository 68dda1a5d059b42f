package trace

import (
	"strings"
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
)

// runTraced executes a small traced workload: core 0 loads an L1-resident
// line, a remote line and a memory line, and stores once.
func runTraced(t *testing.T, c *Collector) {
	t.Helper()
	m := machine.New(knl.DefaultConfig())
	m.SetTracer(c)
	local := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	remote := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	mem := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(local, 0, cache.Exclusive)
	m.Prime(remote, 20, cache.Exclusive)
	s := &machine.Script{}
	s.Load(local, 0)
	s.Load(remote, 0)
	s.Load(mem, 0)
	s.Store(local, 0)
	s.StoreNT(mem, 0)
	m.SpawnKernel(knl.Place{Tile: 0, Core: 0}, s.Program())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorCapturesOps(t *testing.T) {
	c := NewCollector()
	runTraced(t, c)
	if c.Len() != 5 {
		t.Fatalf("captured %d records, want 5", c.Len())
	}
	sums := c.Summaries(BySource)
	keys := map[string]bool{}
	for _, s := range sums {
		keys[s.Key] = true
	}
	for _, want := range []string{"load/L1", "load/remote", "load/mem", "store", "store-nt"} {
		if !keys[want] {
			t.Errorf("missing bucket %q (have %v)", want, keys)
		}
	}
	// Latency ordering: L1 < remote < mem.
	med := map[string]float64{}
	for _, s := range sums {
		med[s.Key] = s.Summary.Med
	}
	if !(med["load/L1"] < med["load/remote"] && med["load/remote"] < med["load/mem"]) {
		t.Errorf("latency ordering broken: %v", med)
	}
}

func TestWriteCSV(t *testing.T) {
	c := NewCollector()
	runTraced(t, c)
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 6 { // header + 5 records
		t.Fatalf("csv has %d lines, want 6", len(lines))
	}
	if !strings.HasPrefix(lines[0], "start_ns,") {
		t.Errorf("bad header %q", lines[0])
	}
	if !strings.Contains(b.String(), "load") {
		t.Error("csv missing op kinds")
	}
}

func TestUntracedMachineUnaffected(t *testing.T) {
	// SetTracer(nil) must be safe and cost nothing.
	m := machine.New(knl.DefaultConfig())
	m.SetTracer(nil)
	b := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	s := &machine.Script{}
	s.Load(b, 0)
	m.SpawnKernel(knl.Place{}, s.Program())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceCollective traces a tuned barrier end-to-end: the distribution
// must contain both cheap cached polls (L1) and coherence misses (remote).
func TestTraceCollective(t *testing.T) {
	cfg := knl.DefaultConfig()
	m := machine.New(cfg)
	c := NewCollector()
	m.SetTracer(c)
	// A minimal 2-thread flag ping-pong (the barrier's building block).
	flag := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	ping, pong := &machine.Script{}, &machine.Script{}
	for r := 1; r <= 8; r += 2 {
		ping.StoreWord(flag, 0, uint64(r))
		ping.WaitWordGE(flag, 0, uint64(r+1), nil)
		pong.WaitWordGE(flag, 0, uint64(r), nil)
		pong.StoreWord(flag, 0, uint64(r+1))
	}
	m.SpawnKernel(knl.Place{Tile: 0, Core: 0}, ping.Program())
	m.SpawnKernel(knl.Place{Tile: 5, Core: 10}, pong.Program())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Both fast (cached re-read) and slow (post-invalidation) loads occur.
	var loads []float64
	stores := 0
	for _, r := range c.Records() {
		switch r.Kind {
		case machine.OpLoad:
			loads = append(loads, r.Latency())
		case machine.OpStore:
			stores++
		}
	}
	if len(loads) == 0 || stores == 0 {
		t.Fatalf("ping-pong traced %d loads and %d stores, want both", len(loads), stores)
	}
	lo, hi := loads[0], loads[0]
	for _, l := range loads {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi < 5*lo {
		t.Errorf("poll loads should span cached (%.1f) to coherence-miss (%.1f)", lo, hi)
	}
}
