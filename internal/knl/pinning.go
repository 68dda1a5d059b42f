package knl

import "fmt"

// Schedule is a thread-pinning policy (paper Sections IV-B.3 and V-A).
type Schedule int

const (
	// Scatter places first one thread per tile, then the second core of each
	// tile, then hyperthreads.
	Scatter Schedule = iota
	// FillTiles places one thread per core, filling both cores of a tile
	// before moving to the next tile (no hyperthreads until all cores used).
	FillTiles
	// Compact fills all four hyperthreads of a core before moving to the
	// next core ("filling cores" in the paper).
	Compact
)

func (s Schedule) String() string {
	switch s {
	case Scatter:
		return "scatter"
	case FillTiles:
		return "fill-tiles"
	case Compact:
		return "compact"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// Schedules lists all pinning policies.
var Schedules = []Schedule{Scatter, FillTiles, Compact}

// ParseSchedule resolves a schedule name ("scatter", "fill-tiles" or its
// alias "filltiles", "compact").
func ParseSchedule(name string) (Schedule, error) {
	if name == "filltiles" {
		return FillTiles, nil
	}
	for _, s := range Schedules {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("knl: unknown schedule %q (want scatter|fill-tiles|compact)", name)
}

// Place identifies a hardware thread: the logical tile, the global core ID
// (tile*CoresPerTile + local core), and the hyperthread slot 0..3.
type Place struct {
	Tile int
	Core int
	HT   int
}

func (p Place) String() string {
	return fmt.Sprintf("t%d/c%d/h%d", p.Tile, p.Core, p.HT)
}

// Pin maps n logical threads to hardware places under the given schedule for
// a chip with numTiles active tiles. It panics if n exceeds the hardware
// thread count or is not positive.
func Pin(sched Schedule, numTiles, n int) []Place {
	max := numTiles * CoresPerTile * ThreadsPerCore
	if n <= 0 || n > max {
		panic(fmt.Sprintf("knl: cannot pin %d threads on %d tiles", n, numTiles))
	}
	places := make([]Place, 0, n)
	add := func(tile, localCore, ht int) {
		if len(places) < n {
			places = append(places, Place{
				Tile: tile,
				Core: tile*CoresPerTile + localCore,
				HT:   ht,
			})
		}
	}
	switch sched {
	case Scatter:
		// Round-robin over tiles for each (core, ht) layer.
		for ht := 0; ht < ThreadsPerCore; ht++ {
			for c := 0; c < CoresPerTile; c++ {
				for t := 0; t < numTiles; t++ {
					add(t, c, ht)
				}
			}
		}
	case FillTiles:
		// One thread per core, cores in tile order; hyperthreads last.
		for ht := 0; ht < ThreadsPerCore; ht++ {
			for t := 0; t < numTiles; t++ {
				for c := 0; c < CoresPerTile; c++ {
					add(t, c, ht)
				}
			}
		}
	case Compact:
		// All hyperthreads of a core before the next core.
		for t := 0; t < numTiles; t++ {
			for c := 0; c < CoresPerTile; c++ {
				for ht := 0; ht < ThreadsPerCore; ht++ {
					add(t, c, ht)
				}
			}
		}
	default:
		panic("knl: unknown schedule")
	}
	return places
}

// CoresUsed returns the number of distinct cores covered by places.
func CoresUsed(places []Place) int {
	seen := map[int]bool{}
	for _, p := range places {
		seen[p.Core] = true
	}
	return len(seen)
}
