package mesh

import (
	"fmt"

	"knlcap/internal/knl"
	"knlcap/internal/sim"
)

// LinkFabric adds occupancy modeling to the mesh: each row and each column
// is a ring with two directions, and every traversal holds its Y-ring and
// X-ring segments for the per-hop flit time. The paper measured no
// congestion from P2P pairs; with the fabric enabled, that result is
// *earned* — ring occupancies stay far below saturation for cache-to-cache
// traffic — instead of assumed. (Memory streams bypass the per-line fabric
// charge like real KNL's distinct data paths; the mesh was never their
// bottleneck in the paper's measurements either.)
type LinkFabric struct {
	p Params
	// rings[dim][index][dir]: dim 0 = X rings (one per row),
	// dim 1 = Y rings (one per column); dir 0/1 = the two directions.
	rings [2][][2]*sim.Resource
	// FlitNs is the ring occupancy per hop of a 64 B packet: the paper's
	// ring moves one line per cycle per stop (1.3 GHz, two stops' worth of
	// slots per ring), so a packet occupies a segment well under a cycle.
	FlitNs float64
}

// ringNames interns the per-ring resource names once for all machines.
var ringNames = func() [2][][2]string {
	var t [2][][2]string
	t[0] = make([][2]string, knl.GridRows+2)
	t[1] = make([][2]string, knl.GridCols)
	for dim, prefix := range []string{"xring", "yring"} {
		for i := range t[dim] {
			for d := 0; d < 2; d++ {
				t[dim][i][d] = fmt.Sprintf("%s[%d][%d]", prefix, i, d)
			}
		}
	}
	return t
}()

// NewLinkFabric builds ring resources for a GridCols x GridRows mesh.
func NewLinkFabric(env *sim.Env, p Params) *LinkFabric {
	f := &LinkFabric{p: p, FlitNs: 0.4}
	f.rings[0] = make([][2]*sim.Resource, knl.GridRows+2) // X rings incl. EDC rows
	f.rings[1] = make([][2]*sim.Resource, knl.GridCols)
	for dim := range f.rings {
		for i := range f.rings[dim] {
			for d := 0; d < 2; d++ {
				f.rings[dim][i][d] = sim.NewResource(env, ringNames[dim][i][d], 1)
			}
		}
	}
	return f
}

// Reset zeroes every ring segment's statistics (machine pooling).
func (f *LinkFabric) Reset() {
	for dim := range f.rings {
		for i := range f.rings[dim] {
			for d := 0; d < 2; d++ {
				f.rings[dim][i][d].Reset()
			}
		}
	}
}

// ringIndexY clamps a position's Y (EDCs sit at -1 and GridRows) onto the
// X-ring array, which has two extra rows for them.
func ringIndexY(y int) int { return y + 1 }

// OccupyCtx routes one packet from a to b (Y first, then X, as the paper
// describes), queueing on x a hold of each ring segment for FlitNs per
// hop. Latency is the caller's concern; this models only the ring
// occupancy that congestion would come from.
func (f *LinkFabric) OccupyCtx(x *sim.StepCtx, a, b knl.Pos) {
	if a == b {
		return
	}
	// Y leg on column a.X.
	if dy := b.Y - a.Y; dy != 0 {
		dir := 0
		if dy < 0 {
			dir = 1
			dy = -dy
		}
		x.Use(f.rings[1][clampCol(a.X)][dir], f.FlitNs*float64(dy))
	}
	// X leg on row b.Y.
	if dx := b.X - a.X; dx != 0 {
		dir := 0
		if dx < 0 {
			dir = 1
			dx = -dx
		}
		x.Use(f.rings[0][ringIndexY(b.Y)][dir], f.FlitNs*float64(dx))
	}
}

func clampCol(x int) int {
	if x < 0 {
		return 0
	}
	if x >= knl.GridCols {
		return knl.GridCols - 1
	}
	return x
}

// Utilization returns the highest ring-direction utilization observed —
// the congestion observable ("None" in Table I corresponds to values well
// under 1).
func (f *LinkFabric) Utilization() float64 {
	var max float64
	for dim := range f.rings {
		for i := range f.rings[dim] {
			for d := 0; d < 2; d++ {
				if u := f.rings[dim][i][d].Utilization(); u > max {
					max = u
				}
			}
		}
	}
	return max
}
