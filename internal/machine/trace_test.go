package machine

import (
	"slices"
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

// collector is a test-local Tracer that buffers every record.
type collector struct{ records []OpRecord }

func (r *collector) Record(op OpRecord) { r.records = append(r.records, op) }

// bucket names a record the way knl-trace groups it: loads by data
// source, other operations by kind.
func bucket(r OpRecord) string {
	if r.Kind != OpLoad {
		return r.Kind.String()
	}
	return "load/" + r.Source
}

// TestCollectorCapturesOps runs a small traced workload (core 0 loads an
// L1-resident line, a remote line and a memory line, stores once and
// NT-stores once) and checks one record per operation, one bucket per
// source class, and the latency order L1 < remote < memory.
func TestCollectorCapturesOps(t *testing.T) {
	m := New(knl.DefaultConfig())
	rec := &collector{}
	m.SetTracer(rec)
	local := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	remote := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	mem := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	m.Prime(local, 0, cache.Exclusive)
	m.Prime(remote, 20, cache.Exclusive)
	s := &Script{}
	s.Load(local, 0)
	s.Load(remote, 0)
	s.Load(mem, 0)
	s.Store(local, 0)
	s.StoreNT(mem, 0)
	m.SpawnKernel(knl.Place{Tile: 0, Core: 0}, s.Program())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.records) != 5 {
		t.Fatalf("captured %d records, want 5", len(rec.records))
	}
	lat := map[string]float64{}
	for _, r := range rec.records {
		lat[bucket(r)] = r.Latency()
	}
	for _, want := range []string{"load/L1", "load/remote", "load/mem", "store", "store-nt"} {
		if _, ok := lat[want]; !ok {
			t.Errorf("missing bucket %q (have %v)", want, lat)
		}
	}
	if !(lat["load/L1"] < lat["load/remote"] && lat["load/remote"] < lat["load/mem"]) {
		t.Errorf("latency ordering broken: %v", lat)
	}
}

// TestUntracedMachineUnaffected checks that SetTracer(nil) is safe.
func TestUntracedMachineUnaffected(t *testing.T) {
	m := New(knl.DefaultConfig())
	m.SetTracer(nil)
	b := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	s := &Script{}
	s.Load(b, 0)
	m.SpawnKernel(knl.Place{}, s.Program())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceCollective traces a flag ping-pong, the building block of a
// tuned barrier: the polls must span cheap cached re-reads (L1) and
// coherence misses after the partner's store, at least 5x apart.
func TestTraceCollective(t *testing.T) {
	m := New(knl.DefaultConfig())
	rec := &collector{}
	m.SetTracer(rec)
	flag := m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	ping, pong := &Script{}, &Script{}
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
	var loads []float64
	stores := 0
	for _, r := range rec.records {
		switch r.Kind {
		case OpLoad:
			loads = append(loads, r.Latency())
		case OpStore:
			stores++
		}
	}
	if len(loads) == 0 || stores == 0 {
		t.Fatalf("ping-pong traced %d loads and %d stores, want both", len(loads), stores)
	}
	lo, hi := slices.Min(loads), slices.Max(loads)
	if hi < 5*lo {
		t.Errorf("poll loads should span cached (%.1f) to coherence-miss (%.1f)", lo, hi)
	}
}
