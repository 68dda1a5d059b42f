package knl

import (
	"testing"
	"testing/quick"
)

func TestClusterModeStringsAndClusters(t *testing.T) {
	cases := []struct {
		m        ClusterMode
		name     string
		clusters int
		numa     bool
	}{
		{A2A, "A2A", 1, false},
		{Hemisphere, "HEM", 2, false},
		{Quadrant, "QUAD", 4, false},
		{SNC2, "SNC2", 2, true},
		{SNC4, "SNC4", 4, true},
	}
	for _, c := range cases {
		if c.m.String() != c.name {
			t.Errorf("%v String = %q, want %q", c.m, c.m.String(), c.name)
		}
		if c.m.Clusters() != c.clusters {
			t.Errorf("%v Clusters = %d, want %d", c.m, c.m.Clusters(), c.clusters)
		}
		if c.m.NUMAVisible() != c.numa {
			t.Errorf("%v NUMAVisible = %v, want %v", c.m, c.m.NUMAVisible(), c.numa)
		}
	}
}

func TestPosHops(t *testing.T) {
	a := Pos{X: 0, Y: 0}
	b := Pos{X: 5, Y: 6}
	if got := a.Hops(b); got != 11 {
		t.Errorf("Hops = %d, want 11", got)
	}
	if got := a.Hops(a); got != 0 {
		t.Errorf("self Hops = %d, want 0", got)
	}
	if a.Hops(b) != b.Hops(a) {
		t.Error("Hops not symmetric")
	}
}

func TestFloorplanInvariants(t *testing.T) {
	f := NewFloorplan(7210)
	if f.NumTiles() != ActiveTiles {
		t.Fatalf("NumTiles = %d, want %d", f.NumTiles(), ActiveTiles)
	}
	seen := map[Pos]bool{}
	for i := 0; i < f.NumTiles(); i++ {
		p := f.TilePos(i)
		if seen[p] {
			t.Errorf("duplicate tile position %v", p)
		}
		seen[p] = true
		if p.X < 0 || p.X >= GridCols || p.Y < 0 || p.Y >= GridRows {
			t.Errorf("tile %d position %v out of grid", i, p)
		}
		if _, res := reservedCells[p]; res {
			t.Errorf("tile %d placed on reserved cell %v", i, p)
		}
	}
	if len(f.EDCPos) != NumEDC {
		t.Errorf("EDC count = %d, want %d", len(f.EDCPos), NumEDC)
	}
	if len(f.IMCPos) != NumIMC {
		t.Errorf("IMC count = %d, want %d", len(f.IMCPos), NumIMC)
	}
}

func TestFloorplanQuadrantBalance(t *testing.T) {
	f := NewFloorplan(7210)
	counts := make([]int, 4)
	for i := 0; i < f.NumTiles(); i++ {
		counts[f.TileQuadrant(i)]++
	}
	for q, c := range counts {
		if c != ActiveTiles/4 {
			t.Errorf("quadrant %d has %d tiles, want %d", q, c, ActiveTiles/4)
		}
	}
	hemi := make([]int, 2)
	for i := 0; i < f.NumTiles(); i++ {
		hemi[f.TileHemisphere(i)]++
	}
	if hemi[0] != hemi[1] {
		t.Errorf("hemisphere balance %v", hemi)
	}
}

func TestFloorplanDeterminism(t *testing.T) {
	a, b := NewFloorplan(1), NewFloorplan(1)
	for i := 0; i < a.NumTiles(); i++ {
		if a.TilePos(i) != b.TilePos(i) {
			t.Fatal("same seed produced different floorplans")
		}
	}
	c := NewFloorplan(2)
	diff := false
	for i := 0; i < a.NumTiles(); i++ {
		if a.TilePos(i) != c.TilePos(i) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical floorplans")
	}
}

func TestTileClusterConsistency(t *testing.T) {
	f := NewFloorplan(7210)
	for tile := 0; tile < f.NumTiles(); tile++ {
		if got := f.TileCluster(A2A, tile); got != 0 {
			t.Errorf("A2A cluster of tile %d = %d, want 0", tile, got)
		}
		if f.TileCluster(SNC2, tile) != f.TileHemisphere(tile) {
			t.Errorf("SNC2 cluster != hemisphere for tile %d", tile)
		}
		if f.TileCluster(SNC4, tile) != f.TileQuadrant(tile) {
			t.Errorf("SNC4 cluster != quadrant for tile %d", tile)
		}
		// Quadrant nests inside hemisphere: left quadrants 0,2 <-> hemi 0.
		q, h := f.TileQuadrant(tile), f.TileHemisphere(tile)
		if (q&1 == 0) != (h == 0) {
			t.Errorf("tile %d quadrant %d inconsistent with hemisphere %d", tile, q, h)
		}
	}
}

func TestTilesInClusterPartition(t *testing.T) {
	f := NewFloorplan(7210)
	for _, mode := range ClusterModes {
		total := 0
		seen := map[int]bool{}
		for cl := 0; cl < mode.Clusters(); cl++ {
			for _, tile := range f.TilesInCluster(mode, cl) {
				if seen[tile] {
					t.Errorf("%v: tile %d in two clusters", mode, tile)
				}
				seen[tile] = true
				total++
			}
		}
		if total != f.NumTiles() {
			t.Errorf("%v: clusters cover %d tiles, want %d", mode, total, f.NumTiles())
		}
	}
}

func TestEDCQuadrantCoverage(t *testing.T) {
	f := NewFloorplan(7210)
	counts := make([]int, 4)
	for e := 0; e < NumEDC; e++ {
		counts[f.EDCQuadrant(e)]++
	}
	for q, c := range counts {
		if c != 2 {
			t.Errorf("quadrant %d has %d EDCs, want 2", q, c)
		}
	}
}

func TestPinCounts(t *testing.T) {
	for _, sched := range Schedules {
		for _, n := range []int{1, 2, 17, 64, 128, 256} {
			places := Pin(sched, ActiveTiles, n)
			if len(places) != n {
				t.Errorf("%v Pin(%d) returned %d places", sched, n, len(places))
			}
			seen := map[int]bool{}
			for _, p := range places {
				hw := p.Core*ThreadsPerCore + p.HT
				if seen[hw] {
					t.Errorf("%v Pin(%d): duplicate hw thread %d", sched, n, hw)
				}
				seen[hw] = true
				if p.Core/CoresPerTile != p.Tile {
					t.Errorf("%v: core %d not in tile %d", sched, p.Core, p.Tile)
				}
				if p.HT < 0 || p.HT >= ThreadsPerCore {
					t.Errorf("%v: bad HT %d", sched, p.HT)
				}
			}
		}
	}
}

// tilesUsed returns the number of distinct tiles covered by places.
func tilesUsed(places []Place) int {
	seen := map[int]bool{}
	for _, p := range places {
		seen[p.Tile] = true
	}
	return len(seen)
}

func TestPinScatterSpreadsTiles(t *testing.T) {
	places := Pin(Scatter, ActiveTiles, 32)
	if got := tilesUsed(places); got != 32 {
		t.Errorf("scatter 32 threads on %d tiles, want 32", got)
	}
	// 64 threads scatter: still 32 tiles, but 64 cores.
	places = Pin(Scatter, ActiveTiles, 64)
	if got := CoresUsed(places); got != 64 {
		t.Errorf("scatter 64 threads on %d cores, want 64", got)
	}
}

func TestPinFillTilesPacksTiles(t *testing.T) {
	places := Pin(FillTiles, ActiveTiles, 32)
	if got := tilesUsed(places); got != 16 {
		t.Errorf("fill-tiles 32 threads on %d tiles, want 16", got)
	}
	if got := CoresUsed(places); got != 32 {
		t.Errorf("fill-tiles 32 threads on %d cores, want 32", got)
	}
}

func TestPinCompactPacksCores(t *testing.T) {
	places := Pin(Compact, ActiveTiles, 8)
	if got := CoresUsed(places); got != 2 {
		t.Errorf("compact 8 threads on %d cores, want 2", got)
	}
	if got := tilesUsed(places); got != 1 {
		t.Errorf("compact 8 threads on %d tiles, want 1", got)
	}
}

func TestPinPanics(t *testing.T) {
	for _, n := range []int{0, -1, NumHWThreads + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pin(%d) did not panic", n)
				}
			}()
			Pin(Scatter, ActiveTiles, n)
		}()
	}
}

// Property: pinning is always injective on hardware threads and prefixes are
// consistent (Pin(n)[i] == Pin(m)[i] for i < n <= m).
func TestPinPrefixProperty(t *testing.T) {
	f := func(schedRaw, nRaw uint8) bool {
		sched := Schedules[int(schedRaw)%len(Schedules)]
		n := 1 + int(nRaw)%(NumHWThreads-1)
		m := n + int(nRaw)%16
		if m > NumHWThreads {
			m = NumHWThreads
		}
		a := Pin(sched, ActiveTiles, n)
		b := Pin(sched, ActiveTiles, m)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Cluster = ClusterMode(99)
	if bad.Validate() == nil {
		t.Error("invalid cluster mode accepted")
	}
	bad = DefaultConfig()
	bad.Memory = Hybrid
	bad.HybridCacheFraction = 0
	if bad.Validate() == nil {
		t.Error("hybrid fraction 0 accepted")
	}
}

func TestConfigMCDRAMCacheBytes(t *testing.T) {
	c := DefaultConfig() // flat
	if c.MCDRAMCacheBytes() != 0 {
		t.Error("flat mode should have no MCDRAM cache")
	}
	c.Memory = CacheMode
	want := int64(MCDRAMBytes) >> DefaultCacheScaleShift
	if got := c.MCDRAMCacheBytes(); got != want {
		t.Errorf("cache bytes = %d, want %d", got, want)
	}
	c.Memory = Hybrid
	if got := c.MCDRAMCacheBytes(); got != want/2 {
		t.Errorf("hybrid cache bytes = %d, want %d", got, want/2)
	}
}

func TestConfigName(t *testing.T) {
	c := DefaultConfig()
	if c.Name() != "SNC4-flat" {
		t.Errorf("Name = %q, want SNC4-flat", c.Name())
	}
	if got := c.WithModes(A2A, CacheMode).Name(); got != "A2A-cache" {
		t.Errorf("Name = %q, want A2A-cache", got)
	}
}

func TestAllConfigs(t *testing.T) {
	cfgs := AllConfigs(Flat)
	if len(cfgs) != 5 {
		t.Fatalf("AllConfigs returned %d configs, want 5", len(cfgs))
	}
	if cfgs[0].Cluster != SNC4 || cfgs[4].Cluster != A2A {
		t.Error("AllConfigs order must match table columns (SNC4..A2A)")
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("config %v invalid: %v", c.Name(), err)
		}
	}
}

func TestParseModes(t *testing.T) {
	for _, cm := range ClusterModes {
		got, err := ParseClusterMode(cm.String())
		if err != nil || got != cm {
			t.Errorf("ParseClusterMode(%q) = %v, %v", cm.String(), got, err)
		}
	}
	if got, err := ParseClusterMode("snc4"); err != nil || got != SNC4 {
		t.Errorf("case-insensitive parse failed: %v, %v", got, err)
	}
	if _, err := ParseClusterMode("bogus"); err == nil {
		t.Error("bogus cluster mode accepted")
	}
	for _, mm := range []MemoryMode{Flat, CacheMode, Hybrid} {
		got, err := ParseMemoryMode(mm.String())
		if err != nil || got != mm {
			t.Errorf("ParseMemoryMode(%q) = %v, %v", mm.String(), got, err)
		}
	}
	if _, err := ParseMemoryMode("weird"); err == nil {
		t.Error("bogus memory mode accepted")
	}
	for _, tc := range []struct {
		name string
		want Schedule
	}{{"scatter", Scatter}, {"fill-tiles", FillTiles}, {"filltiles", FillTiles}, {"compact", Compact}} {
		if got, err := ParseSchedule(tc.name); err != nil || got != tc.want {
			t.Errorf("ParseSchedule(%q) = %v, %v", tc.name, got, err)
		}
	}
	for _, bogus := range []string{"bogus", "", "Compact"} {
		if _, err := ParseSchedule(bogus); err == nil {
			t.Errorf("bogus schedule %q accepted", bogus)
		}
	}
}
