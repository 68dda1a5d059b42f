// Package knl describes the Knights Landing chip topology used by the
// simulator: the tile floorplan, yield-disabled tiles, cluster and memory
// modes, quadrant/hemisphere geometry, and thread-pinning schedules.
//
// The modeled part is the Xeon Phi 7210 evaluated in the paper: 32 active
// dual-core tiles (of 38 die slots), 4 hyperthreads per core, 1.3 GHz,
// 16 GB MCDRAM behind 8 EDCs and 96 GB DDR4-2133 behind 2 IMCs x 3 channels.
package knl

import (
	"fmt"

	"knlcap/internal/units"
)

// ClusterMode selects how cache-line addresses map to distributed tag
// directories (CHAs) and how memory is interleaved (paper Section II-D).
type ClusterMode int

const (
	// A2A hashes lines uniformly over all CHAs.
	A2A ClusterMode = iota
	// Hemisphere splits the die in two halves; a line's CHA is in the same
	// hemisphere as the memory it comes from. Software-transparent.
	Hemisphere
	// Quadrant is like Hemisphere with four quadrants. Software-transparent.
	Quadrant
	// SNC2 exposes two NUMA domains (like Hemisphere, but visible to the OS).
	SNC2
	// SNC4 exposes four NUMA domains (like Quadrant, but visible to the OS).
	SNC4
)

// ClusterModes lists all cluster modes in the column order of Tables I/II.
var ClusterModes = []ClusterMode{SNC4, SNC2, Quadrant, Hemisphere, A2A}

func (m ClusterMode) String() string {
	switch m {
	case A2A:
		return "A2A"
	case Hemisphere:
		return "HEM"
	case Quadrant:
		return "QUAD"
	case SNC2:
		return "SNC2"
	case SNC4:
		return "SNC4"
	default:
		return fmt.Sprintf("ClusterMode(%d)", int(m))
	}
}

// Clusters returns how many affinity clusters the mode carves the die into.
func (m ClusterMode) Clusters() int {
	switch m {
	case A2A:
		return 1
	case Hemisphere, SNC2:
		return 2
	case Quadrant, SNC4:
		return 4
	default:
		panic("knl: unknown cluster mode")
	}
}

// NUMAVisible reports whether the mode exposes clusters as NUMA domains.
func (m ClusterMode) NUMAVisible() bool { return m == SNC2 || m == SNC4 }

// MemoryMode selects the role of MCDRAM (paper Section II-C).
type MemoryMode int

const (
	// Flat exposes MCDRAM and DDR as separate address ranges (NUMA nodes).
	Flat MemoryMode = iota
	// CacheMode configures MCDRAM as a direct-mapped memory-side cache.
	CacheMode
	// Hybrid splits MCDRAM into a cache part and a flat part.
	Hybrid
)

func (m MemoryMode) String() string {
	switch m {
	case Flat:
		return "flat"
	case CacheMode:
		return "cache"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("MemoryMode(%d)", int(m))
	}
}

// MemKind distinguishes the two memory technologies.
type MemKind int

const (
	DDR MemKind = iota
	MCDRAM
)

func (k MemKind) String() string {
	if k == DDR {
		return "DRAM"
	}
	return "MCDRAM"
}

// Basic line and chip constants for the modeled 7210 part.
const (
	LineSize       = 64 // bytes per cache line
	CoresPerTile   = 2
	ThreadsPerCore = 4
	TileSlots      = 38 // physical tile positions on the die
	ActiveTiles    = 32 // 7210: 64 cores
	NumCores       = ActiveTiles * CoresPerTile
	NumHWThreads   = NumCores * ThreadsPerCore

	GridCols = 6 // mesh columns holding tiles
	GridRows = 7 // mesh rows holding tiles

	L1Bytes = 32 << 10 // per core, data
	L1Ways  = 8
	L2Bytes = 1 << 20 // per tile, shared by both cores
	L2Ways  = 16

	NumEDC      = 8 // MCDRAM controllers
	NumIMC      = 2 // DDR controllers
	DDRChannels = 6 // 3 per IMC
	MCDRAMBytes = 16 << 30
)

// Typed views of the chip constants for the capability-model layers
// (internal/units): same values as the untyped constants above, but
// carrying their physical dimension so the unitcheck analyzer can police
// how they combine. The untyped forms remain for the simulator's integer
// address arithmetic.
const (
	// LineBytes is the 64-byte cache line as a typed size.
	LineBytes units.Bytes = LineSize
	// L1Capacity / L2Capacity are the per-core L1 and per-tile L2 sizes.
	L1Capacity units.Bytes = L1Bytes
	L2Capacity units.Bytes = L2Bytes
)

// Pos is a mesh coordinate. Tiles occupy the GridCols x GridRows interior;
// EDCs sit on virtual rows -1 (top) and GridRows (bottom); IMCs occupy the
// two reserved interior cells on row 3.
type Pos struct{ X, Y int }

// Hops returns the YX-routed mesh distance between two positions. Packets
// travel first in Y, then in X (paper Section II-B); on the half-ring fabric
// the effective distance is the Manhattan distance.
func (p Pos) Hops(q Pos) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
