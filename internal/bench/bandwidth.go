package bench

import (
	"knlcap/internal/cache"
	"knlcap/internal/exp"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/stats"
)

// CacheBandwidths holds the bandwidth section of Table I (GB/s of message
// payload, the Xeon Phi benchmark convention).
type CacheBandwidths struct {
	Config knl.Config
	// Read is the single-thread vectorized read of a remote-cache message
	// into registers.
	Read float64
	// CopyTileM/E copy a message from the sibling core's cache.
	CopyTileM, CopyTileE float64
	// CopyRemote copies from a remote tile (max median across sizes).
	CopyRemote float64
}

// copyOnce measures the median payload bandwidth (GB/s) of copying a
// message of `lines` lines held by core `owner` in state st into a local
// buffer, re-priming between iterations.
func copyOnce(cfg knl.Config, o Options, owner int, st cache.State, lines int, read bool) float64 {
	m := o.acquire(cfg)
	src := m.Alloc.MustAlloc(knl.DDR, 0, int64(lines)*knl.LineSize)
	dst := m.Alloc.MustAlloc(knl.DDR, 0, int64(lines)*knl.LineSize)
	vals := make([]float64, 0, o.Iterations)
	bytes := float64(lines * knl.LineSize)
	body := machine.KernelOp{Kind: machine.StreamCopy, Dst: dst, Src: src, N: lines}
	if read {
		body = machine.KernelOp{Kind: machine.StreamRead, Src: src, N: lines, Vector: true}
	}
	runConverged(m, knl.Place{Tile: 0, Core: 0}, o.ConvergeAfter, o.Iterations,
		func() {
			m.Prime(src, owner, st)
			m.Prime(dst, 0, cache.Modified)
		},
		body,
		func(elapsed float64) { vals = append(vals, bytes/elapsed) })
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	o.release(m)
	return stats.Median(vals)
}

// MeasureCacheBandwidths regenerates the Table I bandwidth rows: the
// maximum median across message sizes from 1 line to 256 KB.
func MeasureCacheBandwidths(cfg knl.Config, o Options, sizes []int) CacheBandwidths {
	if len(sizes) == 0 {
		sizes = []int{16, 128, 1024, 4096} // lines: 1 KB .. 256 KB
	}
	out := CacheBandwidths{Config: cfg}
	remoteOwner := knl.NumCores / 2 // a tile far enough to be remote
	// Four table rows x len(sizes) message sizes, every point an
	// independent copyOnce on a pooled machine; each row reports its
	// maximum median across sizes.
	rows := []struct {
		owner int
		st    cache.State
		read  bool
	}{
		{remoteOwner, cache.Exclusive, true},  // Read
		{1, cache.Modified, false},            // CopyTileM
		{1, cache.Exclusive, false},           // CopyTileE
		{remoteOwner, cache.Exclusive, false}, // CopyRemote
	}
	key := o.KeyFor("table1-bandwidth", cfg).Ints(sizes).Key()
	vals := exp.RunMemo(o.Parallel, o.Memo, key,
		len(rows)*len(sizes), func(pool *exp.MachinePool, i int) float64 {
			po := o.withPool(pool)
			r := rows[i/len(sizes)]
			return copyOnce(cfg, po, r.owner, r.st, sizes[i%len(sizes)], r.read)
		})
	best := make([]float64, len(rows))
	for i, v := range vals {
		if row := i / len(sizes); v > best[row] {
			best[row] = v
		}
	}
	out.Read, out.CopyTileM, out.CopyTileE, out.CopyRemote = best[0], best[1], best[2], best[3]
	return out
}

// Placement classifies the source location of a Figure 5 series.
type Placement int

const (
	SameTile Placement = iota
	SameQuadrant
	RemoteQuadrant
)

func (p Placement) String() string {
	switch p {
	case SameTile:
		return "same-tile"
	case SameQuadrant:
		return "same-quadrant"
	default:
		return "remote-quadrant"
	}
}

// SizePoint is one Figure 5 data point.
type SizePoint struct {
	Placement Placement
	State     cache.State
	Bytes     int
	GBs       float64
}

// ownerForPlacement picks a source core for the placement class relative
// to core 0 using the floorplan's quadrant geometry.
func ownerForPlacement(cfg knl.Config, pl Placement) int {
	fp := knl.NewFloorplan(cfg.YieldSeed)
	q0 := fp.TileQuadrant(0)
	switch pl {
	case SameTile:
		return 1
	case SameQuadrant:
		for t := 1; t < fp.NumTiles(); t++ {
			if fp.TileQuadrant(t) == q0 {
				return t * knl.CoresPerTile
			}
		}
	case RemoteQuadrant:
		for t := 1; t < fp.NumTiles(); t++ {
			// Diagonal quadrant: differs in both hemisphere and half.
			if fp.TileQuadrant(t) == q0^3 {
				return t * knl.CoresPerTile
			}
		}
	}
	panic("bench: no core found for placement")
}

// MeasureCopyBySize regenerates Figure 5: copy bandwidth versus message
// size (64 B - 256 KB) for M and E source states and the three placements,
// under the given configuration (the paper uses SNC4-cache).
func MeasureCopyBySize(cfg knl.Config, o Options, sizesBytes []int) []SizePoint {
	if len(sizesBytes) == 0 {
		for b := 64; b <= 256<<10; b *= 4 {
			sizesBytes = append(sizesBytes, b)
		}
	}
	placements := []Placement{SameTile, SameQuadrant, RemoteQuadrant}
	states := []cache.State{cache.Modified, cache.Exclusive}
	perPl := len(states) * len(sizesBytes)
	key := o.KeyFor("fig5-copy-by-size", cfg).Ints(sizesBytes).Key()
	pts := exp.RunMemo(o.Parallel, o.Memo, key,
		len(placements)*perPl, func(pool *exp.MachinePool, i int) SizePoint {
			po := o.withPool(pool)
			pl := placements[i/perPl]
			st := states[(i%perPl)/len(sizesBytes)]
			lines := sizesBytes[i%len(sizesBytes)] / knl.LineSize
			if lines < 1 {
				lines = 1
			}
			gbs := copyOnce(cfg, po, ownerForPlacement(cfg, pl), st, lines, false)
			return SizePoint{Placement: pl, State: st, Bytes: lines * knl.LineSize, GBs: gbs}
		})
	return pts
}
