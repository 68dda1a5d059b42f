package machine

import (
	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// The machine keeps all per-line protocol metadata in dense tables indexed
// by line-address offset, one per memory kind. memmode.Allocator is a bump
// allocator, so each kind's allocations tile a contiguous address range
// and `line - base` is a dense index; the former map[cache.Line] tables
// hashed on every off-tile access, which dominated the sweep profile once
// the event engine went allocation-free.
//
// Each table is split in two. The directory slots (lineSlot, 16 B) hold
// the owner bitset, its generation and the word/watch flags; they are the
// only per-line record the load, store, stream, Prime/FlushLine/flushEpoch
// and notify paths read, and extend grows them to cover every line the
// allocations span. The side table (slotExt) holds the payload word, the
// watch version and the poller signal, which only flag and atomic kernels
// use: setWord, addWord and markWatched grow it on demand, so a workload
// that only streams and walks never allocates it, and reads past its end
// see zero without creating anything.
//
// Flushes are epoch-based: every registered allocation carries a
// generation counter, a slot's directory content is live only while the
// generation recorded in the slot matches its buffer's, and FlushBuffer
// retires a whole allocation by bumping the generation — O(1) beyond the
// tag-array invalidation of the lines actually cached. Payload words and
// watch state are not generation-gated: flushing a line never cleared
// them under the map design either (FlushLine only deleted directory
// entries).
//
// CAUTION for maintainers: neither a *lineSlot nor a *slotExt may be held
// across a juncture of a step process — either table may grow while the
// process sleeps, reallocating its slice and leaving the pointer
// dangling. Re-resolve through Machine.lineState or Machine.extOf after
// every potential block (see waitWordStep's wwWait state).

// lineSlot is the dense per-line directory record. Its flags stay here,
// not in the side table, so notify's "is anyone watching?" test on every
// visible write touches no other memory.
type lineSlot struct {
	owners uint64 // tile bitset (live iff gen matches the buffer's)
	gen    uint32 // buffer generation at the last dirAdd
	flags  uint8
}

// slotExt is the payload/poller record of a line, kept in the side table.
// The sig pointer is non-nil only while pollers are blocked on the line
// (see waitWordStep): signals are dropped after every broadcast, fixing
// the monotonic watcher-table growth of the map design.
type slotExt struct {
	word     uint64      // payload (meaningful iff slotWord is set)
	watchVer uint64      // notify count since the line became watched
	sig      *sim.Signal // live poller signal; nil when none are blocked
}

const (
	slotWord    uint8 = 1 << iota // a payload word has been stored
	slotWatched                   // the line has (ever had) pollers
)

// lineTable is the dense per-line metadata table of one memory kind.
type lineTable struct {
	//knl:nostate immutable wiring: which memory kind the table serves
	kind knl.MemKind
	//knl:nostate immutable base line of the kind's address range
	base  cache.Line
	slots []lineSlot
	// ext is the payload/poller side table, indexed like slots but
	// covering only the prefix up to the highest line that ever stored a
	// word or had pollers (never longer than slots).
	ext []slotExt
	// lineBuf maps a slot index to its registered-buffer id; id 0 is the
	// anonymous bucket for lines outside any allocation (its generation
	// never advances, so anonymous entries are only killed per line).
	lineBuf []int32
	bufGen  []uint32 // buffer id -> current directory generation
	//knl:nostate derived live-count bookkeeping over the folded owner/generation slots
	bufLive []int32 // buffer id -> slots with a live directory entry
	//knl:nostate registered-allocation mirror, resynced from the allocator
	bufs []memmode.Buffer // registered allocations; bufs[id-1]
	//knl:nostate allocator sync cursor for bufs
	synced int // allocator buffers registered so far

	dirLive int // live directory entries (the former len(dir))
	words   int // slots with slotWord set (the former len(words))
	watched int // slots with slotWatched set (the former len(watchers))
}

func (t *lineTable) init(kind knl.MemKind, base cache.Line) {
	t.kind = kind
	t.base = base
	t.reset()
}

// reset forgets all line state while keeping slice capacity. Recycled
// slot and side-table memory is re-zeroed lazily by extend and ensureExt,
// so a pooled machine pays only for the region its next workload actually
// touches.
func (t *lineTable) reset() {
	t.slots = t.slots[:0]
	t.ext = t.ext[:0]
	t.lineBuf = t.lineBuf[:0]
	t.bufGen = append(t.bufGen[:0], 0) // id 0: the anonymous bucket
	t.bufLive = append(t.bufLive[:0], 0)
	t.bufs = t.bufs[:0]
	t.synced = 0
	t.dirLive, t.words, t.watched = 0, 0, 0
}

// grow registers allocator buffers made since the last sync and extends
// the table to cover slot index idx (lines beyond every allocation fall
// into the anonymous bucket).
func (t *lineTable) grow(a *memmode.Allocator, idx int) {
	for _, b := range a.Buffers(t.kind)[t.synced:] {
		id := int32(len(t.bufGen))
		t.bufGen = append(t.bufGen, 0)
		t.bufLive = append(t.bufLive, 0)
		t.bufs = append(t.bufs, b)
		lo := int(uint64(cache.LineOf(b.Base)) - uint64(t.base))
		hi := lo + b.NumLines()
		t.extend(hi)
		for i := lo; i < hi; i++ {
			// A line touched before its buffer was registered sits in the
			// anonymous bucket; transfer any live entry to the new id so
			// the per-buffer live counts stay exact.
			if s := &t.slots[i]; s.owners != 0 && t.lineBuf[i] == 0 {
				t.bufLive[0]--
				t.bufLive[id]++
				s.gen = t.bufGen[id]
			}
			t.lineBuf[i] = id
		}
		t.synced++
	}
	t.extend(idx + 1)
}

// extend grows the table to cover n slots; recycled capacity (left dirty
// by reset) is re-zeroed on the way.
func (t *lineTable) extend(n int) {
	if n <= len(t.slots) {
		return
	}
	old := len(t.slots)
	if n > cap(t.slots) {
		c := 2 * cap(t.slots)
		if c < n {
			c = n
		}
		//lint:ignore hotalloc doubling growth is amortized O(1) per line; pooled machines reuse capacity and never re-enter this branch
		slots := make([]lineSlot, n, c)
		copy(slots, t.slots)
		t.slots = slots
		//lint:ignore hotalloc same amortized doubling as the slots table above
		lineBuf := make([]int32, n, c)
		copy(lineBuf, t.lineBuf)
		t.lineBuf = lineBuf
		return
	}
	t.slots = t.slots[:n]
	clear(t.slots[old:])
	t.lineBuf = t.lineBuf[:n]
	clear(t.lineBuf[old:])
}

// ensureExt grows the side table to cover slot index i and returns its
// record. Like extend it doubles, and re-zeroes recycled capacity (left
// dirty by reset) on the way. The pointer obeys the CAUTION above.
func (t *lineTable) ensureExt(i int) *slotExt {
	if n := i + 1; n > len(t.ext) {
		if n > cap(t.ext) {
			c := 2 * cap(t.ext)
			if c < n {
				c = n
			}
			//lint:ignore hotalloc doubling growth is amortized O(1) per line; pooled machines reuse capacity and never re-enter this branch
			ext := make([]slotExt, n, c)
			copy(ext, t.ext)
			t.ext = ext
		} else {
			old := len(t.ext)
			t.ext = t.ext[:n]
			clear(t.ext[old:])
		}
	}
	return &t.ext[i]
}

// extOf returns the side-table record of l, or nil when the side table
// ends before it (so no word was stored there and no poller watched it).
// It creates nothing.
func (m *Machine) extOf(l cache.Line) *slotExt {
	t := &m.lines[memmode.KindOfAddr(l.Addr())]
	if i := uint64(l) - uint64(t.base); i < uint64(len(t.ext)) {
		return &t.ext[i]
	}
	return nil
}

// lineState returns the table and slot for l, growing the table when the
// line lies beyond the region synced from the allocator. The returned
// pointer is valid only until the next potential table growth — never
// hold it across a juncture.
func (m *Machine) lineState(l cache.Line) (*lineTable, *lineSlot, int) {
	t := &m.lines[memmode.KindOfAddr(l.Addr())]
	i := int(uint64(l) - uint64(t.base))
	if i >= len(t.slots) {
		t.grow(m.Alloc, i)
	}
	return t, &t.slots[i], i
}

// --- directory ------------------------------------------------------------

// dirAdd sets the tile's bit in the line's owner set in one slot access
// (the former map did a lookup plus a write). A slot whose generation
// lags its buffer's holds a retired entry and is treated as empty.
func (m *Machine) dirAdd(l cache.Line, tile int) {
	t, s, i := m.lineState(l)
	g := t.bufGen[t.lineBuf[i]]
	bit := uint64(1) << uint(tile)
	if s.owners == 0 || s.gen != g {
		s.owners = bit
		s.gen = g
		t.bufLive[t.lineBuf[i]]++
		t.dirLive++
		return
	}
	s.owners |= bit
}

// dirRemove clears the tile's bit in one slot access.
func (m *Machine) dirRemove(l cache.Line, tile int) {
	t, s, i := m.lineState(l)
	if s.owners == 0 || s.gen != t.bufGen[t.lineBuf[i]] {
		return
	}
	s.owners &^= 1 << uint(tile)
	if s.owners == 0 {
		t.bufLive[t.lineBuf[i]]--
		t.dirLive--
	}
}

// owners returns the tile bitset holding the line. It never grows the
// table: a line beyond it has no directory entry.
func (m *Machine) owners(l cache.Line) uint64 {
	t := &m.lines[memmode.KindOfAddr(l.Addr())]
	i := uint64(l) - uint64(t.base)
	if i >= uint64(len(t.slots)) {
		return 0
	}
	if s := &t.slots[i]; s.gen == t.bufGen[t.lineBuf[i]] {
		return s.owners
	}
	return 0
}

// --- payload words --------------------------------------------------------

// PeekWord returns the payload of line li of b without any timing cost
// (test inspection).
func (m *Machine) PeekWord(b memmode.Buffer, li int) uint64 {
	return m.wordOf(b.Line(li))
}

// PokeWord sets the payload of line li of b without any timing cost
// (setup).
func (m *Machine) PokeWord(b memmode.Buffer, li int, v uint64) {
	m.setWord(b.Line(li), v)
}

// wordOf reads the line's payload word (reads never create an entry, so
// the digest's word count moves only on stores — as with the former map).
func (m *Machine) wordOf(l cache.Line) uint64 {
	if e := m.extOf(l); e != nil {
		return e.word
	}
	return 0
}

// setWord stores the line's payload word.
func (m *Machine) setWord(l cache.Line, v uint64) {
	t, s, i := m.lineState(l)
	if s.flags&slotWord == 0 {
		s.flags |= slotWord
		t.words++
	}
	t.ensureExt(i).word = v
}

// addWord adds delta to the line's payload word and returns the result.
func (m *Machine) addWord(l cache.Line, delta uint64) uint64 {
	t, s, i := m.lineState(l)
	if s.flags&slotWord == 0 {
		s.flags |= slotWord
		t.words++
	}
	e := t.ensureExt(i)
	e.word += delta
	return e.word
}

// --- watch slots ----------------------------------------------------------

// markWatched registers l as watched: from here on, wake-ups for the
// line's pollers are driven by the slot's notify version. The slot stays
// watched for the machine's lifetime — like the former on-demand map
// entries — but the signal itself now lives only while pollers are
// blocked on it.
func (m *Machine) markWatched(l cache.Line) {
	t, s, i := m.lineState(l)
	if s.flags&slotWatched == 0 {
		s.flags |= slotWatched
		t.watched++
		t.ensureExt(i)
	}
}

// watchVersion samples the line's notify version; a poller compares it
// after its load to sleep without lost wake-ups (waitWordStep).
func (m *Machine) watchVersion(l cache.Line) uint64 {
	if e := m.extOf(l); e != nil {
		return e.watchVer
	}
	return 0
}

// notify wakes pollers of a line after a visible write.
func (m *Machine) notify(l cache.Line) {
	t, s, i := m.lineState(l)
	if s.flags&slotWatched == 0 {
		return
	}
	e := &t.ext[i] // markWatched grew the side table over the line
	e.watchVer++
	if sig := e.sig; sig != nil {
		// Drop the signal before broadcasting: signals exist only while
		// pollers are blocked (the map design kept one per watched line
		// forever, growing the table monotonically over long sweeps).
		e.sig = nil
		sig.Broadcast()
	}
}
