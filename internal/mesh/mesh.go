// Package mesh models the KNL on-die interconnect: a 2D "mesh of rings"
// where each stop sees two discrete rings (X and Y) and packets route Y
// first, then X (paper Section II-B).
//
// The paper's congestion benchmark ("pairs of threads... communicating
// simultaneously") observed no latency increase, so links are modeled as
// latency-only (no queueing); per-hop and injection latencies are the
// structural parameters. The contended structures in the machine model are
// the CHA directories and tile L2 ports, not the mesh links — matching the
// measurement.
package mesh

import "knlcap/internal/knl"

// Params are the mesh timing parameters in nanoseconds.
type Params struct {
	// InjectNs is paid once per network traversal (arbitration for a gap on
	// the ring plus entry/exit buffering).
	InjectNs float64
	// HopNs is paid per ring stop traversed.
	HopNs float64
}

// DefaultParams reproduces the distance spread seen in the paper's Figure 4
// (~20-25 ns between nearest and farthest core at three traversals per
// transfer).
func DefaultParams() Params {
	return Params{InjectNs: 2.0, HopNs: 1.0}
}

// Router computes traversal latencies on a concrete floorplan.
type Router struct {
	fp *knl.Floorplan
	p  Params
}

// NewRouter builds a router for the floorplan with the given parameters.
func NewRouter(fp *knl.Floorplan, p Params) *Router {
	return &Router{fp: fp, p: p}
}

// Latency returns the one-way latency between two mesh positions.
// Zero-distance traversals (same stop) cost nothing.
func (r *Router) Latency(a, b knl.Pos) float64 {
	h := a.Hops(b)
	if h == 0 {
		return 0
	}
	return r.p.InjectNs + r.p.HopNs*float64(h)
}

// TileToTile returns the one-way latency between two logical tiles.
func (r *Router) TileToTile(a, b int) float64 {
	if a == b {
		return 0
	}
	return r.Latency(r.fp.TilePos(a), r.fp.TilePos(b))
}

// TileToEDC returns the one-way latency from a tile to an MCDRAM controller.
func (r *Router) TileToEDC(tile, edc int) float64 {
	return r.Latency(r.fp.TilePos(tile), r.fp.EDCPos[edc])
}

// TileToIMC returns the one-way latency from a tile to a DDR controller.
// ch is a global DDR channel index 0..5; channels 0-2 belong to IMC0.
func (r *Router) TileToIMC(tile, ch int) float64 {
	return r.Latency(r.fp.TilePos(tile), r.fp.IMCPos[ch/3])
}

// EDCToIMC returns the one-way latency between an EDC and the IMC serving a
// DDR channel (used for cache-mode miss fills).
func (r *Router) EDCToIMC(edc, ch int) float64 {
	return r.Latency(r.fp.EDCPos[edc], r.fp.IMCPos[ch/3])
}
