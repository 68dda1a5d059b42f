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
	c := NewCollector(0)
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

func TestCollectorCapacityDropsOldest(t *testing.T) {
	c := NewCollector(3)
	runTraced(t, c) // 5 ops into capacity 3
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if c.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", c.Dropped())
	}
	// The survivors are the three most recent (mem load, store, store-nt).
	if c.Records()[0].Source != "mem" {
		t.Errorf("oldest survivor = %+v, want the mem load", c.Records()[0])
	}
	c.Reset()
	if c.Len() != 0 || c.Dropped() != 0 {
		t.Error("reset incomplete")
	}
}

func TestGroupers(t *testing.T) {
	c := NewCollector(0)
	runTraced(t, c)
	byKind := c.Summaries(ByKind)
	total := 0
	for _, s := range byKind {
		total += s.Count
	}
	if total != 5 {
		t.Errorf("kind buckets cover %d records, want 5", total)
	}
	byCore := c.Summaries(ByCore)
	if len(byCore) != 1 || byCore[0].Key != "core0" {
		t.Errorf("core grouping = %+v", byCore)
	}
}

func TestBusyFraction(t *testing.T) {
	c := NewCollector(0)
	runTraced(t, c)
	busy := c.BusyFraction()
	if f := busy[0]; f <= 0 || f > 1 {
		t.Errorf("busy fraction = %v, want in (0,1]", f)
	}
	if empty := NewCollector(0).BusyFraction(); empty != nil {
		t.Error("empty collector should return nil")
	}
}

func TestWriteCSV(t *testing.T) {
	c := NewCollector(0)
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
	c := NewCollector(0)
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
	sums := c.Summaries(ByKind)
	kinds := map[string]int{}
	for _, s := range sums {
		kinds[s.Key] = s.Count
	}
	if kinds["load"] == 0 || kinds["store"] == 0 {
		t.Fatalf("ping-pong traced %v, want loads and stores", kinds)
	}
	// Both fast (cached re-read) and slow (post-invalidation) loads occur.
	var loads []float64
	for _, r := range c.Records() {
		if r.Kind == machine.OpLoad {
			loads = append(loads, r.Latency())
		}
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
