package cluster

import (
	"testing"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/stats"
)

func mapperFor(cm knl.ClusterMode) *Mapper {
	cfg := knl.DefaultConfig().WithModes(cm, knl.Flat)
	return NewMapper(knl.NewFloorplan(cfg.YieldSeed), cfg)
}

func TestChannelAssignmentPerMode(t *testing.T) {
	for _, cm := range knl.ClusterModes {
		m := mapperFor(cm)
		// Every cluster interleaves DDR over the 3 channels of its closest
		// IMC (all 6 in single-cluster modes); the two quadrants of a
		// hemisphere share channels (there are only two IMCs).
		for c := 0; c < cm.Clusters(); c++ {
			want := 3
			if cm.Clusters() == 1 {
				want = knl.DDRChannels
			}
			if got := len(m.ddrByCluster[c]); got != want {
				t.Errorf("%v: cluster %d has %d DDR channels, want %d", cm, c, got, want)
			}
			imc := m.hemisphereOfCluster(c)
			for _, ch := range m.ddrByCluster[c] {
				if cm.Clusters() > 1 && ch/3 != imc {
					t.Errorf("%v: cluster %d uses channel %d of remote IMC", cm, c, ch)
				}
			}
		}
		// EDCs partition evenly (each quadrant has its own two EDCs).
		for c := 0; c < cm.Clusters(); c++ {
			want := knl.NumEDC / cm.Clusters()
			if got := len(m.edcByCluster[c]); got != want {
				t.Errorf("%v: cluster %d has %d EDCs, want %d", cm, c, got, want)
			}
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	m := mapperFor(knl.SNC4)
	a := m.Place(knl.DDR, 2, 12345)
	b := m.Place(knl.DDR, 2, 12345)
	if a != b {
		t.Errorf("Place not deterministic: %+v vs %+v", a, b)
	}
}

// Channel is the channel half of Place: the same hash over the same
// channel sets, for every mode, memory kind and allocation cluster.
func TestChannelMatchesPlace(t *testing.T) {
	rng := stats.NewRNG(7)
	for _, cm := range knl.ClusterModes {
		m := mapperFor(cm)
		for _, kind := range []knl.MemKind{knl.DDR, knl.MCDRAM} {
			for aff := 0; aff < cm.Clusters(); aff++ {
				for i := 0; i < 2000; i++ {
					l := cache.Line(rng.Uint64() >> 6)
					if got, want := m.Channel(kind, aff, l), m.Place(kind, aff, l).Channel; got != want {
						t.Fatalf("%v %v affinity %d line %#x: Channel = %d, Place().Channel = %d",
							cm, kind, aff, l, got, want)
					}
				}
			}
		}
	}
}

func TestPlaceSNCRespectsAffinity(t *testing.T) {
	m := mapperFor(knl.SNC4)
	for aff := 0; aff < 4; aff++ {
		for l := cache.Line(0); l < 500; l++ {
			p := m.Place(knl.DDR, aff, l)
			if p.Channel/3 != m.hemisphereOfCluster(aff) {
				t.Fatalf("affinity %d line %d landed on channel %d of the remote IMC",
					aff, l, p.Channel)
			}
			if m.ClusterOfTile(p.HomeTile)&1 != aff&1 {
				t.Fatalf("affinity %d line %d home tile %d outside hemisphere", aff, l, p.HomeTile)
			}
			pm := m.Place(knl.MCDRAM, aff, l)
			if m.clusterOfEDC(pm.Channel) != aff {
				t.Fatalf("MCDRAM affinity %d line %d on EDC %d of wrong cluster",
					aff, l, pm.Channel)
			}
		}
	}
}

func TestPlaceQuadrantHomeMatchesChannelCluster(t *testing.T) {
	m := mapperFor(knl.Quadrant)
	for l := cache.Line(0); l < 2000; l++ {
		p := m.Place(knl.MCDRAM, 0, l)
		if m.clusterOfEDC(p.Channel) != m.ClusterOfTile(p.HomeTile) {
			t.Fatalf("line %d: EDC cluster %d != home tile cluster %d",
				l, m.clusterOfEDC(p.Channel), m.ClusterOfTile(p.HomeTile))
		}
	}
}

func TestPlaceA2ASpreadsHomesAcrossDie(t *testing.T) {
	m := mapperFor(knl.A2A)
	homes := map[int]int{}
	for l := cache.Line(0); l < 4000; l++ {
		p := m.Place(knl.DDR, 0, l)
		homes[p.HomeTile]++
	}
	if len(homes) != knl.ActiveTiles {
		t.Errorf("A2A used %d home tiles, want all %d", len(homes), knl.ActiveTiles)
	}
	for tile, c := range homes {
		if c < 4000/knl.ActiveTiles/3 {
			t.Errorf("home tile %d badly underused: %d hits", tile, c)
		}
	}
}

func TestPlaceChannelUniformity(t *testing.T) {
	for _, cm := range []knl.ClusterMode{knl.A2A, knl.Quadrant} {
		m := mapperFor(cm)
		counts := make([]int, knl.DDRChannels)
		const n = 12000
		for l := cache.Line(0); l < n; l++ {
			counts[m.Place(knl.DDR, 0, l).Channel]++
		}
		for ch, c := range counts {
			want := n / knl.DDRChannels
			if c < want*8/10 || c > want*12/10 {
				t.Errorf("%v: DDR channel %d has %d lines, want ~%d", cm, ch, c, want)
			}
		}
	}
}

func TestPlaceBadAffinityPanics(t *testing.T) {
	m := mapperFor(knl.SNC2)
	defer func() {
		if recover() == nil {
			t.Error("bad affinity did not panic")
		}
	}()
	m.Place(knl.DDR, 5, 1)
}

func TestCacheEDCStaysInClusterOfDDRChannel(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode)
	m := NewMapper(knl.NewFloorplan(cfg.YieldSeed), cfg)
	for ch := 0; ch < knl.DDRChannels; ch++ {
		for l := cache.Line(0); l < 200; l++ {
			want := m.homeClusterForDDR(ch, l)
			e := m.CacheEDC(ch, l)
			if got := m.clusterOfEDC(e); got != want {
				t.Fatalf("channel %d line %d cached on EDC %d (cluster %d), want cluster %d",
					ch, l, e, got, want)
			}
		}
	}
}

func TestCacheEDCA2AUsesAllEDCs(t *testing.T) {
	cfg := knl.DefaultConfig().WithModes(knl.A2A, knl.CacheMode)
	m := NewMapper(knl.NewFloorplan(cfg.YieldSeed), cfg)
	used := map[int]bool{}
	for l := cache.Line(0); l < 1000; l++ {
		used[m.CacheEDC(0, l)] = true
	}
	if len(used) != knl.NumEDC {
		t.Errorf("A2A cache-mode used %d EDCs, want %d", len(used), knl.NumEDC)
	}
}

// The channel sets Place interleaves over: all channels when the
// clusters are transparent, the cluster's own half under SNC2.
func TestChannelsFor(t *testing.T) {
	m := mapperFor(knl.Quadrant) // transparent: all channels visible
	if got := len(m.allChannels(knl.DDR)); got != knl.DDRChannels {
		t.Errorf("transparent channel set = %d, want %d", got, knl.DDRChannels)
	}
	ms := mapperFor(knl.SNC2)
	if got := len(ms.channelsOf(knl.DDR, 0)); got != knl.DDRChannels/2 {
		t.Errorf("SNC2 cluster 0 channel set = %d, want %d", got, knl.DDRChannels/2)
	}
}
