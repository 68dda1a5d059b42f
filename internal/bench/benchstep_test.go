package bench

import (
	"math"
	"testing"

	"knlcap/internal/knl"
)

// TestBenchStepEquivalence checks that the convergence gate composes with
// the step-process kernels: a cache-latency table measured with the gate
// on (ConvergeAfter = 2) is bit-identical to the same table simulated in
// full.
func TestBenchStepEquivalence(t *testing.T) {
	feq := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: gated %v != ungated %v", name, a, b)
		}
	}
	o := quick()
	o.NoJitter = true
	o.ChaseLen = 64
	og := o
	og.ConvergeAfter = 2
	ou := o
	ou.ConvergeAfter = 0
	cfg := knl.DefaultConfig()
	gated := MeasureCacheLatencies(cfg, og, 2)
	ungated := MeasureCacheLatencies(cfg, ou, 2)
	feq("L1", gated.LocalL1, ungated.LocalL1)
	feq("tileM", gated.TileM, ungated.TileM)
	feq("remoteM lo", gated.RemoteM.Lo, ungated.RemoteM.Lo)
	feq("remoteM hi", gated.RemoteM.Hi, ungated.RemoteM.Hi)
}
