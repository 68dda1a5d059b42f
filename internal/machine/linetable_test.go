package machine

import (
	"strings"
	"testing"
	"unsafe"

	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
)

// TestLineSlotIs16Bytes pins the dense directory record: every load,
// store and stream walk reads one slot per line, so a field added to it
// costs host cache misses on every streamed line. Payload and poller state
// belong in slotExt.
func TestLineSlotIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(lineSlot{}); got != 16 {
		t.Fatalf("lineSlot is %d bytes, want 16", got)
	}
}

// sideTableCaps returns the side-table capacity of the DDR and MCDRAM
// line tables.
func sideTableCaps(m *Machine) [2]int {
	return [2]int{cap(m.lines[knl.DDR].ext), cap(m.lines[knl.MCDRAM].ext)}
}

// TestStreamOnlyRunAllocatesNoSideTable checks the side table's laziness:
// streams and flushes read and write directory slots only, so a run made
// of nothing else never allocates payload or poller state.
func TestStreamOnlyRunAllocatesNoSideTable(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	src := m.Alloc.MustAlloc(knl.DDR, 0, 64*knl.LineSize)
	dst := m.Alloc.MustAlloc(knl.MCDRAM, 0, 64*knl.LineSize)
	runOne(t, m, place(0), func(s *Script) {
		s.ReadStreamRange(src, 0, 64, true)
		s.CopyStreamRange(dst, src, 0, 0, 64, false)
	})
	m.FlushBuffer(src)
	m.FlushBuffer(dst)
	if len(m.lines[knl.DDR].slots) == 0 || len(m.lines[knl.MCDRAM].slots) == 0 {
		t.Fatal("the streams grew no directory slots")
	}
	if c := sideTableCaps(m); c != [2]int{} {
		t.Errorf("stream-only run left side-table capacity %v, want none", c)
	}
	if err := m.CheckPresence(); err != nil {
		t.Fatal(err)
	}
}

// TestWordOpsGrowSideTable checks the other side: a setup word store, an
// atomic add and a poller that blocks each grow the side table over their
// line, and a blocked poller's signal lives there.
func TestWordOpsGrowSideTable(t *testing.T) {
	covers := func(m *Machine, b memmode.Buffer, li int) bool {
		return m.extOf(b.Line(li)) != nil
	}

	t.Run("PokeWord", func(t *testing.T) {
		m := noJitter(knl.DefaultConfig())
		b := m.Alloc.MustAlloc(knl.MCDRAM, 0, 4*knl.LineSize)
		m.PokeWord(b, 3, 9)
		if !covers(m, b, 3) || m.PeekWord(b, 3) != 9 {
			t.Errorf("PokeWord: side table covers line: %v, word %d", covers(m, b, 3), m.PeekWord(b, 3))
		}
	})

	t.Run("AddWord", func(t *testing.T) {
		m := noJitter(knl.DefaultConfig())
		b := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
		runOne(t, m, place(0), func(s *Script) { s.AddWord(b, 2, 5, nil) })
		if !covers(m, b, 2) || m.PeekWord(b, 2) != 5 {
			t.Errorf("AddWord: side table covers line: %v, word %d", covers(m, b, 2), m.PeekWord(b, 2))
		}
	})

	t.Run("WaitWordGE", func(t *testing.T) {
		m := noJitter(knl.DefaultConfig())
		b := m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize)
		var blockedCovered, blockedSig bool
		var got uint64
		spawnScript(m, place(10), func(s *Script) {
			s.WaitWordGE(b, 1, 1, func(v uint64) { got = v })
		})
		spawnScript(m, place(0), func(s *Script) {
			s.Compute(2000)
			s.Do(func() {
				e := m.extOf(b.Line(1))
				blockedCovered = e != nil
				blockedSig = e != nil && e.sig != nil
			})
			s.StoreWord(b, 1, 1)
		})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if !blockedCovered || !blockedSig {
			t.Errorf("blocked poller: side table covers line: %v, signal present: %v", blockedCovered, blockedSig)
		}
		if got != 1 {
			t.Errorf("poller observed %d, want 1", got)
		}
	})
}

// TestSideTableMatchesMapModel drives random word, watch, notify, flush
// and Reset sequences through the line tables and compares every word,
// every watch version and the word/watched counts with a map-based
// reference model (the representation the dense tables replaced). The
// lines span two DDR buffers, an MCDRAM buffer and the anonymous bucket
// past the last DDR allocation, so reads run past the side table's end
// and writes grow it from different offsets.
func TestSideTableMatchesMapModel(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		m := noJitter(knl.DefaultConfig())
		rng := stats.NewRNG(seed)
		var bufs []memmode.Buffer
		var lines []cache.Line
		// Keyed by line address: the model is the map representation.
		words := map[uint64]uint64{}
		watched := map[uint64]uint64{}
		setup := func() {
			bufs = []memmode.Buffer{
				m.Alloc.MustAlloc(knl.DDR, 0, 4*knl.LineSize),
				m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize),
				m.Alloc.MustAlloc(knl.MCDRAM, 0, 4*knl.LineSize),
			}
			lines = lines[:0]
			for _, b := range bufs {
				for li := 0; li < b.NumLines(); li++ {
					lines = append(lines, b.Line(li))
				}
			}
			last := bufs[1]
			for k := 1; k <= 4; k++ { // anonymous: beyond every allocation
				lines = append(lines, last.Line(last.NumLines()-1)+cache.Line(k))
			}
			clear(words)
			clear(watched)
		}
		setup()
		for step := 0; step < 4000; step++ {
			l := lines[rng.Intn(len(lines))]
			k := uint64(l)
			switch op := rng.Intn(20); {
			case op < 4:
				v := rng.Uint64() % 1000
				m.setWord(l, v)
				words[k] = v
			case op < 8:
				d := rng.Uint64() % 10
				got := m.addWord(l, d)
				words[k] += d
				if got != words[k] {
					t.Fatalf("seed %d step %d: addWord(%#x) = %d, model %d", seed, step, k, got, words[k])
				}
			case op < 12:
				if got := m.wordOf(l); got != words[k] {
					t.Fatalf("seed %d step %d: wordOf(%#x) = %d, model %d", seed, step, k, got, words[k])
				}
			case op < 14:
				m.markWatched(l)
				if _, ok := watched[k]; !ok {
					watched[k] = 0
				}
			case op < 17:
				m.notify(l)
				if v, ok := watched[k]; ok {
					watched[k] = v + 1
				}
			case op < 18:
				if got := m.watchVersion(l); got != watched[k] {
					t.Fatalf("seed %d step %d: watchVersion(%#x) = %d, model %d", seed, step, k, got, watched[k])
				}
			case op < 19:
				m.FlushBuffer(bufs[rng.Intn(len(bufs))])
			default:
				if rng.Intn(8) == 0 {
					m.Reset(noJitterParams(), seed)
					setup()
				}
			}
			nw := m.lines[0].words + m.lines[1].words
			nv := m.lines[0].watched + m.lines[1].watched
			if nw != len(words) || nv != len(watched) {
				t.Fatalf("seed %d step %d: words/watched counts %d/%d, model %d/%d", seed, step, nw, nv, len(words), len(watched))
			}
		}
		for _, l := range lines {
			k := uint64(l)
			if got := m.wordOf(l); got != words[k] {
				t.Errorf("seed %d: final wordOf(%#x) = %d, model %d", seed, k, got, words[k])
			}
			if got := m.watchVersion(l); got != watched[k] {
				t.Errorf("seed %d: final watchVersion(%#x) = %d, model %d", seed, k, got, watched[k])
			}
		}
		if err := m.CheckPresence(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCheckPresenceRecountsDerivedCounts corrupts each derived count of
// the line tables in turn and expects CheckPresence to report it: the
// counts are not digested, and flushEpoch trusts a buffer's live count to
// stop its walk early.
func TestCheckPresenceRecountsDerivedCounts(t *testing.T) {
	m := noJitter(knl.DefaultConfig())
	b := m.Alloc.MustAlloc(knl.DDR, 0, 8*knl.LineSize)
	m.Prime(b, 0, cache.Modified)
	m.Prime(b, 8, cache.Shared) // FlushLine retires the live entries first
	m.PokeWord(b, 2, 1)
	m.markWatched(b.Line(3))
	if err := m.CheckPresence(); err != nil {
		t.Fatal(err)
	}
	tab := &m.lines[knl.DDR]
	id := tab.lineBuf[int(uint64(b.Line(0))-uint64(tab.base))]
	for _, c := range []struct {
		name string
		n    *int
		n32  *int32
		want string
	}{
		{"bufLive", nil, &tab.bufLive[id], "buffer"},
		{"dirLive", &tab.dirLive, nil, "live directory count"},
		{"words", &tab.words, nil, "word count"},
		{"watched", &tab.watched, nil, "watched count"},
	} {
		if c.n32 != nil {
			*c.n32--
		} else {
			*c.n--
		}
		err := m.CheckPresence()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s undercount: CheckPresence = %v, want an error naming the %s", c.name, err, c.want)
		}
		if c.n32 != nil {
			*c.n32++
		} else {
			*c.n++
		}
	}
	if err := m.CheckPresence(); err != nil {
		t.Fatalf("restored counts: %v", err)
	}
}
