package cache

import "testing"

// BenchmarkSetAssoc measures the three row scans the machine's walks and
// Prime lean on, on a full array at the machine's L1 and L2 geometry:
// a Lookup that hits (ways visited in turn), an Invalidate of an absent
// line (every way compared, the common case when a flush probes the L1s
// of a tile), and an Insert that evicts the LRU way. None allocates.
func BenchmarkSetAssoc(b *testing.B) {
	for _, g := range []struct {
		name      string
		cap, ways int
	}{
		{"L1", 32 << 10, 8},
		{"L2", 1 << 20, 16},
	} {
		full := func() (*SetAssoc, int) {
			c := NewSetAssoc(g.name, g.cap, g.ways)
			n := c.Sets() * c.ways
			for i := 0; i < n; i++ {
				c.Insert(Line(i), Exclusive)
			}
			return c, n
		}
		b.Run(g.name+"/LookupHit", func(b *testing.B) {
			c, n := full()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(Line(i * 7 % n))
			}
		})
		b.Run(g.name+"/InvalidateMiss", func(b *testing.B) {
			c, n := full()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Invalidate(Line(n + i*7%n))
			}
		})
		b.Run(g.name+"/InsertEvict", func(b *testing.B) {
			c, n := full()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Insert(Line(n+i), Modified)
			}
		})
	}
}
