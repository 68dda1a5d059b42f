package coll

import (
	"runtime"
	"testing"

	"knlcap/internal/bench"
	"knlcap/internal/core"
	"knlcap/internal/knl"
)

// A collective point builds a fresh machine and touches a few flag lines
// on each tile. Tag storage is allocated per touched block, so the point
// must not pay for whole L2 arrays (384 KB per tile touched).
func TestMeasureAllocBytes(t *testing.T) {
	const points, limit = 2, 4 << 20
	cfg := knl.DefaultConfig()
	model := core.Default()
	o := bench.DefaultOptions().Quick()
	o.WindowNs = 1e6
	p := DefaultParams(64, knl.Scatter)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < points; i++ {
		Measure(cfg, model, o, Barrier, OMP, p)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / points; per >= limit {
		t.Errorf("64-thread OMP barrier point allocates %d bytes, want < %d", per, limit)
	}
}
