// Package cluster implements the address-affinity policies of the KNL
// cluster modes: which CHA tag directory is home for a cache line, which
// memory channel serves it, and which EDC caches it in cache memory mode
// (paper Section II-D, Figure 3).
package cluster

import (
	"fmt"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
)

// Mapper answers placement questions for one machine configuration.
type Mapper struct {
	fp  *knl.Floorplan
	cfg knl.Config

	// tilesByCluster[c] lists logical tiles of affinity cluster c under the
	// configured mode (one entry, the full list, for A2A).
	tilesByCluster [][]int
	// ddrByCluster[c] lists global DDR channel indices (0..5) usable by
	// cluster c; all channels for 1-cluster modes.
	ddrByCluster [][]int
	// edcByCluster[c] lists EDC indices (0..7) usable by cluster c.
	edcByCluster [][]int
	// allDDR / allEDC are the full channel index lists, precomputed so the
	// per-access placement path (Place, CacheEDC) never allocates.
	allDDR []int
	allEDC []int
}

// NewMapper precomputes the affinity tables for fp under cfg.
func NewMapper(fp *knl.Floorplan, cfg knl.Config) *Mapper {
	m := &Mapper{fp: fp, cfg: cfg}
	n := cfg.Cluster.Clusters()
	m.tilesByCluster = make([][]int, n)
	m.ddrByCluster = make([][]int, n)
	m.edcByCluster = make([][]int, n)
	for c := 0; c < n; c++ {
		m.tilesByCluster[c] = fp.TilesInCluster(cfg.Cluster, c)
		if len(m.tilesByCluster[c]) == 0 {
			panic(fmt.Sprintf("cluster: mode %v cluster %d has no tiles", cfg.Cluster, c))
		}
	}
	// DDR: a cluster interleaves over all three channels of its closest IMC
	// (paper Section II-D: "the DDR range assigned to a quadrant is
	// interleaved among the three DDR channels of the closest DDR memory
	// controller"), so in four-cluster modes the two quadrants of a
	// hemisphere share that hemisphere's channels.
	for c := 0; c < n; c++ {
		imc := m.hemisphereOfCluster(c)
		if n == 1 {
			for ch := 0; ch < knl.DDRChannels; ch++ {
				m.ddrByCluster[c] = append(m.ddrByCluster[c], ch)
			}
			continue
		}
		for ch := imc * 3; ch < imc*3+3; ch++ {
			m.ddrByCluster[c] = append(m.ddrByCluster[c], ch)
		}
	}
	for e := 0; e < knl.NumEDC; e++ {
		c := m.clusterOfEDC(e)
		m.edcByCluster[c] = append(m.edcByCluster[c], e)
	}
	m.allDDR = indices(knl.DDRChannels)
	m.allEDC = indices(knl.NumEDC)
	return m
}

// indices returns [0, 1, ..., n-1].
func indices(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// hemisphereOfCluster maps an affinity cluster to its die hemisphere
// (quadrant numbering keeps bit0 = right half).
func (m *Mapper) hemisphereOfCluster(c int) int {
	if m.cfg.Cluster.Clusters() == 1 {
		return 0
	}
	return c & 1
}

// homeClusterForDDR picks the affinity cluster hosting the home directory
// of a DDR line served by channel ch. Both quadrants of a hemisphere share
// the IMC, so in four-cluster modes the quadrant is chosen by address hash.
func (m *Mapper) homeClusterForDDR(ch int, l cache.Line) int {
	hemi := m.fp.IMCHemisphere(ch / 3)
	switch m.cfg.Cluster.Clusters() {
	case 1:
		return 0
	case 2:
		return hemi
	default:
		return hemi | int(hash(l, 0x44)&1)<<1
	}
}

// clusterOfEDC maps an EDC to its affinity cluster.
func (m *Mapper) clusterOfEDC(e int) int {
	q := m.fp.EDCQuadrant(e)
	switch m.cfg.Cluster.Clusters() {
	case 1:
		return 0
	case 2:
		return q & 1 // hemisphere bit
	default:
		return q
	}
}

// hash mixes a line address into a well-distributed 64-bit value
// (splitmix64 finalizer).
func hash(l cache.Line, salt uint64) uint64 {
	z := uint64(l)*0x9e3779b97f4a7c15 + salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// LinePlace is the resolved placement of one line.
type LinePlace struct {
	Kind     knl.MemKind
	Channel  int // DDR channel 0-5 or EDC 0-7, depending on Kind
	HomeTile int // logical tile hosting the CHA tag directory for the line
	Cluster  int // affinity cluster the line landed in
}

// Place resolves the memory channel and home directory for a line of the
// given kind. affinity is the allocation cluster for NUMA-visible (SNC)
// modes and is ignored otherwise; transparent modes interleave lines over
// all channels and pick the directory in the cluster of the chosen channel
// (Figure 3b), while A2A hashes directories over the whole die (Figure 3a).
func (m *Mapper) Place(kind knl.MemKind, affinity int, l cache.Line) LinePlace {
	ch := m.Channel(kind, affinity, l)
	// Home directory cluster: A2A spreads over the die; all other modes put
	// the home in the cluster that owns the memory channel.
	var homeCluster int
	if m.cfg.Cluster == knl.A2A {
		homeCluster = 0
	} else if kind == knl.DDR {
		homeCluster = m.homeClusterForDDR(ch, l)
	} else {
		homeCluster = m.clusterOfEDC(ch)
	}
	tiles := m.tilesByCluster[homeCluster]
	home := tiles[int(hash(l, 0x22)%uint64(len(tiles)))]
	return LinePlace{Kind: kind, Channel: ch, HomeTile: home, Cluster: homeCluster}
}

// Channel resolves only the memory channel of a line: the channel half of
// Place, with the same hash, for callers that have no use for the home
// directory (the stream kernels' per-channel flush bookkeeping).
func (m *Mapper) Channel(kind knl.MemKind, affinity int, l cache.Line) int {
	var chans []int
	if m.cfg.Cluster.NUMAVisible() {
		if affinity < 0 || affinity >= m.cfg.Cluster.Clusters() {
			panic(fmt.Sprintf("cluster: bad affinity %d for %v", affinity, m.cfg.Cluster))
		}
		chans = m.channelsOf(kind, affinity)
	} else {
		chans = m.allChannels(kind)
	}
	return chans[int(hash(l, 0x11)%uint64(len(chans)))]
}

// CacheEDC returns the EDC whose MCDRAM slice caches the given DDR line in
// cache/hybrid memory mode. The cache is distributed across the EDCs of the
// cluster owning the DDR channel (all EDCs in A2A).
func (m *Mapper) CacheEDC(ddrChannel int, l cache.Line) int {
	var edcs []int
	if m.cfg.Cluster == knl.A2A {
		edcs = m.allChannels(knl.MCDRAM)
	} else {
		c := m.homeClusterForDDR(ddrChannel, l)
		edcs = m.edcByCluster[c]
	}
	return edcs[int(hash(l, 0x33)%uint64(len(edcs)))]
}

// channelsOf returns the channels of the kind available to a cluster.
func (m *Mapper) channelsOf(kind knl.MemKind, cluster int) []int {
	if kind == knl.DDR {
		return m.ddrByCluster[cluster]
	}
	return m.edcByCluster[cluster]
}

// allChannels returns the precomputed full channel list of the kind; the
// caller must not modify it.
func (m *Mapper) allChannels(kind knl.MemKind) []int {
	if kind == knl.MCDRAM {
		return m.allEDC
	}
	return m.allDDR
}

// ClusterOfTile returns the affinity cluster of a tile under the mapper's
// mode.
func (m *Mapper) ClusterOfTile(tile int) int {
	return m.fp.TileCluster(m.cfg.Cluster, tile)
}
