package msort

import (
	"math"
	"testing"

	"knlcap/internal/core"
	"knlcap/internal/knl"
)

// TestSimulatePinned pins Simulate and the overhead fit bit for bit across
// both memories, three thread counts and two input sizes (one 1 KB,
// overhead-dominated; one 256 KB, bandwidth-dominated). A change to how the
// sort's traffic is replayed on the machine must leave every bit alone.
func TestSimulatePinned(t *testing.T) {
	cfg := knl.DefaultConfig()
	cases := []struct {
		kind           knl.MemKind
		threads, lines int
		bits           uint64
	}{
		{knl.DDR, 1, 16, 0x40ac3ec25c72dd08},
		{knl.DDR, 1, 4096, 0x41304df1005b4328},
		{knl.DDR, 4, 16, 0x40a88ad92421f7a7},
		{knl.DDR, 4, 4096, 0x4122eefd4b9ff053},
		{knl.DDR, 64, 16, 0x40adb6a228db8af9},
		{knl.DDR, 64, 4096, 0x410f41efb96e1edf},
		{knl.MCDRAM, 1, 16, 0x40af37eb8b164d7e},
		{knl.MCDRAM, 1, 4096, 0x41325728bb45d517},
		{knl.MCDRAM, 4, 16, 0x40aa2a679d605514},
		{knl.MCDRAM, 4, 4096, 0x41243e75f7e3c63a},
		{knl.MCDRAM, 64, 16, 0x40aee8bae3f0ef28},
		{knl.MCDRAM, 64, 4096, 0x410f68417f9f4f34},
	}
	for _, c := range cases {
		got := Simulate(cfg, DefaultSimParams(c.lines, c.threads, c.kind))
		if b := math.Float64bits(got.Float()); b != c.bits {
			t.Errorf("Simulate(%v, threads=%d, lines=%d) = %v (%#x), want %v (%#x)",
				c.kind, c.threads, c.lines, got, b, math.Float64frombits(c.bits), c.bits)
		}
	}

	fits := []struct {
		kind        knl.MemKind
		alpha, beta uint64
	}{
		{knl.DDR, 0x40a32c66fc22b796, 0x402288d179d57129},
		{knl.MCDRAM, 0x40a5210e58a88755, 0x401d822a0079857b},
	}
	for _, f := range fits {
		oh := FitOverhead(cfg, core.Default(), f.kind, nil)
		a, b := math.Float64bits(oh.Alpha.Float()), math.Float64bits(oh.Beta.Float())
		if a != f.alpha || b != f.beta {
			t.Errorf("FitOverhead(%v) = α %v (%#x), β %v (%#x); want α %#x, β %#x",
				f.kind, oh.Alpha, a, oh.Beta, b, f.alpha, f.beta)
		}
	}
}
