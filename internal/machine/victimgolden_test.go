package machine

import (
	"testing"

	"knlcap/internal/knl"
	"knlcap/internal/memmode"
)

// victimGolden pins victimWorkload's digest, event count and end time in
// every cache and hybrid mode. The engine goldens' footprint fits in the
// side cache, so they never evict a dirty side-cache line; this workload
// forces one on each timed path that fills the side cache: the load and
// RFO memory reads, the single-line NT store, the posted write-back of a
// forwarded Modified line, and a stream's booked write-back, memory read
// and NT write.
var victimGolden = []struct {
	name   string
	digest uint64
	events uint64
	end    float64
}{
	{"SNC4-cache", 0x754704aa7cad13db, 155, 1437.26407240889},
	{"SNC2-cache", 0xf74026b501648ff8, 153, 1435.670196792905},
	{"QUAD-cache", 0xe07526989a81d7a2, 153, 1377.433532232327},
	{"HEM-cache", 0x5623aeb7f3a32a2b, 153, 1408.0476068974644},
	{"A2A-cache", 0x2ca214d367bffe38, 155, 1450.7583818171502},
	{"SNC4-hybrid", 0xcdea75fcef566b4b, 152, 1381.5767351724664},
	{"SNC2-hybrid", 0xf420d64b5ae93aab, 152, 1450.875248757235},
	{"QUAD-hybrid", 0xdf771d089b245e9a, 158, 1490.5431304643482},
	{"HEM-hybrid", 0x48cbead19d215dc3, 154, 1484.9559982087087},
	{"A2A-hybrid", 0x3876e63255885285, 146, 1405.9860024716804},
}

// conflictLines returns four lines of b that share one side-cache slot:
// the same direct-mapped index (lines SliceCapacityBytes apart) and the
// same caching EDC. It scans slot offsets upward and returns the first
// offset where four candidates land on one EDC.
func conflictLines(m *Machine, b memmode.Buffer) ([4]int, bool) {
	stride := int(m.Policy.SliceCapacityBytes() / knl.LineSize)
	k := b.NumLines() / stride
	for off := 0; off < stride; off++ {
		var byEDC [knl.NumEDC][]int
		for j := 0; j < k; j++ {
			li := off + j*stride
			l := b.Line(li)
			e := m.Mapper.CacheEDC(m.channelOf(b, l), l)
			if byEDC[e] = append(byEDC[e], li); len(byEDC[e]) == 4 {
				return [4]int(byEDC[e]), true
			}
		}
	}
	return [4]int{}, false
}

// victimWorkload runs five phases over lines A-D of one side-cache slot,
// alternating the writer core 0 with a reader on another tile. Each
// comment gives the slot after the op ("X*" dirty):
//
//	core 0:  NT A (A*), load B (evicts A* on the load's fill), NT B (B*),
//	         store C (evicts B* on the RFO's fill), NT D (D*),
//	         NT C (evicts D* on the NT fill), store A (evicts C*), NT D (D*)
//	reader:  load A: tile 0 forwards its M copy and posts the write-back,
//	         whose fill evicts D* (A*)
//	core 0:  store B (evicts A*), NT C (C*)
//	reader:  1-line stream read of B: the forward books B's write-back,
//	         whose fill evicts C* (B*)
//	reader:  1-line stream read of D from memory (evicts B*), 1-line NT
//	         stream writes of C (C*) and A (evicts C*)
func victimWorkload(t *testing.T, cfg knl.Config) (digest, events uint64, end float64) {
	t.Helper()
	m := NewWithParams(cfg, DefaultParams()) // jitter on
	span := 8 * m.Policy.SliceCapacityBytes()
	b := m.Alloc.MustAlloc(knl.DDR, 0, span)
	li, ok := conflictLines(m, b)
	if !ok {
		t.Fatalf("%s: no four lines share a side-cache slot", cfg.Name())
	}
	a, bl, c, d := li[0], li[1], li[2], li[3]
	const reader = 2 * 9 // core 0 of tile 9
	runOne(t, m, place(0), func(s *Script) {
		s.StoreNT(b, a)
		s.Load(b, bl)
		s.StoreNT(b, bl)
		s.Store(b, c)
		s.StoreNT(b, d)
		s.StoreNT(b, c)
		s.Store(b, a)
		s.StoreNT(b, d)
	})
	runOne(t, m, place(reader), func(s *Script) { s.Load(b, a) })
	runOne(t, m, place(0), func(s *Script) {
		s.Store(b, bl)
		s.StoreNT(b, c)
	})
	runOne(t, m, place(reader), func(s *Script) { s.ReadStreamRange(b, bl, 1, false) })
	runOne(t, m, place(reader), func(s *Script) {
		s.ReadStreamRange(b, d, 1, false)
		s.Op(KernelOp{Kind: StreamWrite, Dst: b, DstFrom: c, N: 1, NT: true}, nil)
		s.Op(KernelOp{Kind: StreamWrite, Dst: b, DstFrom: a, N: 1, NT: true}, nil)
	})
	if err := m.CheckPresence(); err != nil {
		t.Fatalf("%s: %v", cfg.Name(), err)
	}
	// In cache and hybrid mode a DDR line is written to DDR only when a
	// dirty side-cache victim is flushed: once per eviction marked above.
	if w := m.ChannelTraffic()[knl.DDR][1]; w != 9 {
		t.Fatalf("%s: %d DDR line writes, want the workload's 9 dirty victims", cfg.Name(), w)
	}
	return m.StateDigest(), m.Env.Seq(), m.Env.Now()
}

// TestSideCacheVictimGolden compares victimWorkload against its recorded
// values in every cache and hybrid mode.
func TestSideCacheVictimGolden(t *testing.T) {
	i := 0
	for _, mm := range []knl.MemoryMode{knl.CacheMode, knl.Hybrid} {
		for _, cfg := range knl.AllConfigs(mm) {
			want := victimGolden[i]
			i++
			if cfg.Name() != want.name {
				t.Fatalf("config order drifted: got %s, want %s", cfg.Name(), want.name)
			}
			d, ev, end := victimWorkload(t, cfg)
			if d != want.digest {
				t.Errorf("%s: digest %#016x, want %#016x", want.name, d, want.digest)
			}
			if ev != want.events {
				t.Errorf("%s: %d events, want %d", want.name, ev, want.events)
			}
			if end != want.end {
				t.Errorf("%s: end time %v, want %v", want.name, end, want.end)
			}
		}
	}
}
