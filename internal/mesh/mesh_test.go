package mesh

import (
	"math"
	"testing"

	"knlcap/internal/knl"
)

func router() *Router {
	return NewRouter(knl.NewFloorplan(7210), DefaultParams())
}

func TestLatencyZeroForSameStop(t *testing.T) {
	r := router()
	p := knl.Pos{X: 2, Y: 2}
	if got := r.Latency(p, p); got != 0 {
		t.Errorf("same-stop latency = %v, want 0", got)
	}
	if got := r.TileToTile(3, 3); got != 0 {
		t.Errorf("same-tile latency = %v, want 0", got)
	}
}

func TestLatencySymmetric(t *testing.T) {
	r := router()
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if r.TileToTile(a, b) != r.TileToTile(b, a) {
				t.Fatalf("asymmetric latency between tiles %d and %d", a, b)
			}
		}
	}
}

func TestLatencyGrowsWithDistance(t *testing.T) {
	r := router()
	near := r.Latency(knl.Pos{X: 0, Y: 0}, knl.Pos{X: 1, Y: 0})
	far := r.Latency(knl.Pos{X: 0, Y: 0}, knl.Pos{X: 5, Y: 6})
	if near >= far {
		t.Errorf("near %v >= far %v", near, far)
	}
	want := DefaultParams().InjectNs + DefaultParams().HopNs*11
	if far != want {
		t.Errorf("far latency = %v, want %v", far, want)
	}
}

func TestTriangleInequality(t *testing.T) {
	// Direct path never slower than via an intermediate stop (each traversal
	// re-pays injection).
	r := router()
	fp := knl.NewFloorplan(7210)
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			for c := 0; c < 6; c++ {
				if a == b || b == c || a == c {
					continue
				}
				direct := r.Latency(fp.TilePos(a), fp.TilePos(c))
				via := r.Latency(fp.TilePos(a), fp.TilePos(b)) +
					r.Latency(fp.TilePos(b), fp.TilePos(c))
				if direct > via+1e-9 {
					t.Fatalf("direct %d->%d (%v) slower than via %d (%v)", a, c, direct, b, via)
				}
			}
		}
	}
}

func TestControllerReachability(t *testing.T) {
	r := router()
	for tile := 0; tile < knl.ActiveTiles; tile++ {
		for e := 0; e < knl.NumEDC; e++ {
			if l := r.TileToEDC(tile, e); l <= 0 {
				t.Fatalf("tile %d EDC %d latency %v", tile, e, l)
			}
		}
		for ch := 0; ch < knl.DDRChannels; ch++ {
			if l := r.TileToIMC(tile, ch); l <= 0 {
				t.Fatalf("tile %d DDR ch %d latency %v", tile, ch, l)
			}
		}
	}
	for e := 0; e < knl.NumEDC; e++ {
		for ch := 0; ch < knl.DDRChannels; ch++ {
			if l := r.EDCToIMC(e, ch); l <= 0 {
				t.Fatalf("EDC %d to ch %d latency %v", e, ch, l)
			}
		}
	}
}

func TestDistanceSummaries(t *testing.T) {
	r := router()
	var max, sum float64
	n := knl.ActiveTiles
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				l := r.TileToTile(a, b)
				max = math.Max(max, l)
				sum += l
			}
		}
	}
	mean := sum / float64(n*(n-1))
	if mean <= 0 || max <= 0 || mean >= max {
		t.Errorf("mean %v / max %v implausible", mean, max)
	}
	// Die is 6x7: max Manhattan distance 11 hops.
	wantMax := DefaultParams().InjectNs + 11*DefaultParams().HopNs
	if max > wantMax {
		t.Errorf("max distance %v exceeds die bound %v", max, wantMax)
	}
}
