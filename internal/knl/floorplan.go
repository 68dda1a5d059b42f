package knl

import (
	"fmt"
	"slices"

	"knlcap/internal/stats"
)

// Floorplan is the concrete die layout: which grid cells hold tile slots,
// which slots are yield-disabled, where the memory controllers sit, and the
// quadrant/hemisphere geometry.
//
// The paper notes that the physical location of the (yield-)disabled tiles
// is not observable from software; we therefore pick them pseudo-randomly
// (deterministically from a seed), balanced so that each quadrant keeps the
// same number of active tiles.
type Floorplan struct {
	// slotPos[s] is the grid position of physical tile slot s.
	slotPos []Pos
	// active[t] is the slot index of logical (software-visible) tile t,
	// in slot order. len(active) == ActiveTiles.
	active []int
	// EDCPos[e] is the position of MCDRAM controller e.
	EDCPos []Pos
	// IMCPos[i] is the position of DDR controller i.
	IMCPos []Pos
	// IIOPos is the position of the PCIe/IIO stop.
	IIOPos Pos
	seed   uint64
}

// reserved (non-tile) interior cells: two IMCs flank row 3, and two cells of
// row 0 hold the IIO and Misc stops, leaving 42-4 = 38 tile slots.
var reservedCells = map[Pos]string{
	{X: 0, Y: 3}: "IMC0",
	{X: 5, Y: 3}: "IMC1",
	{X: 2, Y: 0}: "IIO",
	{X: 3, Y: 0}: "Misc",
}

// NewFloorplan builds the die layout, disabling TileSlots-ActiveTiles tiles
// chosen deterministically from seed, balanced across quadrants.
func NewFloorplan(seed uint64) *Floorplan {
	f := &Floorplan{seed: seed}
	for y := 0; y < GridRows; y++ {
		for x := 0; x < GridCols; x++ {
			p := Pos{X: x, Y: y}
			if _, res := reservedCells[p]; res {
				continue
			}
			f.slotPos = append(f.slotPos, p)
		}
	}
	if len(f.slotPos) != TileSlots {
		panic(fmt.Sprintf("knl: floorplan has %d slots, want %d", len(f.slotPos), TileSlots))
	}

	// EDCs: four at the top edge, four at the bottom edge (paper Fig. 2b).
	for _, x := range []int{0, 1, 4, 5} {
		f.EDCPos = append(f.EDCPos, Pos{X: x, Y: -1})
	}
	for _, x := range []int{0, 1, 4, 5} {
		f.EDCPos = append(f.EDCPos, Pos{X: x, Y: GridRows})
	}
	f.IMCPos = []Pos{{X: 0, Y: 3}, {X: 5, Y: 3}}
	f.IIOPos = Pos{X: 2, Y: 0}

	f.disableTiles()
	return f
}

// disableTiles removes TileSlots-ActiveTiles slots, keeping the per-quadrant
// active count balanced at ActiveTiles/4.
func (f *Floorplan) disableTiles() {
	perQuad := make([][]int, 4)
	for s, p := range f.slotPos {
		q := quadrantOf(p)
		perQuad[q] = append(perQuad[q], s)
	}
	rng := stats.NewRNG(f.seed ^ 0xd1e5eed)
	wantPerQuad := ActiveTiles / 4
	var act []int
	for q := 0; q < 4; q++ {
		slots := perQuad[q]
		if len(slots) < wantPerQuad {
			panic("knl: quadrant too small for balanced disable")
		}
		// Disable len(slots)-wantPerQuad random slots in this quadrant.
		idx := rng.Perm(len(slots))
		keep := make(map[int]bool, wantPerQuad)
		for _, i := range idx[:wantPerQuad] {
			keep[slots[i]] = true
		}
		for _, s := range slots {
			if keep[s] {
				act = append(act, s)
			}
		}
	}
	// Logical tile IDs follow slot order for stable, software-like numbering.
	slices.Sort(act)
	f.active = act
	if len(f.active) != ActiveTiles {
		panic(fmt.Sprintf("knl: %d active tiles, want %d", len(f.active), ActiveTiles))
	}
}

// quadrantOf maps a position to quadrant 0..3: bit0 = right half,
// bit1 = bottom half.
func quadrantOf(p Pos) int {
	q := 0
	if p.X >= GridCols/2 {
		q |= 1
	}
	if p.Y >= (GridRows+1)/2 {
		q |= 2
	}
	return q
}

// hemisphereOf maps a position to hemisphere 0 (left) or 1 (right).
func hemisphereOf(p Pos) int {
	if p.X >= GridCols/2 {
		return 1
	}
	return 0
}

// NumTiles returns the number of active (software-visible) tiles.
func (f *Floorplan) NumTiles() int { return len(f.active) }

// TilePos returns the grid position of logical tile t.
func (f *Floorplan) TilePos(t int) Pos { return f.slotPos[f.active[t]] }

// TileQuadrant returns the quadrant (0..3) of logical tile t.
func (f *Floorplan) TileQuadrant(t int) int { return quadrantOf(f.TilePos(t)) }

// TileHemisphere returns the hemisphere (0..1) of logical tile t.
func (f *Floorplan) TileHemisphere(t int) int { return hemisphereOf(f.TilePos(t)) }

// TileCluster returns the affinity cluster of tile t under the given mode:
// always 0 for A2A, hemisphere for Hemisphere/SNC2, quadrant for
// Quadrant/SNC4.
func (f *Floorplan) TileCluster(mode ClusterMode, t int) int {
	switch mode.Clusters() {
	case 1:
		return 0
	case 2:
		return f.TileHemisphere(t)
	default:
		return f.TileQuadrant(t)
	}
}

// EDCQuadrant returns the quadrant an EDC belongs to (by its X position and
// top/bottom edge).
func (f *Floorplan) EDCQuadrant(e int) int {
	p := f.EDCPos[e]
	q := 0
	if p.X >= GridCols/2 {
		q |= 1
	}
	if p.Y >= GridRows {
		q |= 2
	}
	return q
}

// IMCHemisphere returns the hemisphere of DDR controller i (IMC0 left,
// IMC1 right).
func (f *Floorplan) IMCHemisphere(i int) int { return i }

// TilesInCluster returns the logical tile IDs belonging to the given cluster
// under the given mode.
func (f *Floorplan) TilesInCluster(mode ClusterMode, cluster int) []int {
	var out []int
	for t := 0; t < f.NumTiles(); t++ {
		if f.TileCluster(mode, t) == cluster {
			out = append(out, t)
		}
	}
	return out
}
