package machine

import (
	"knlcap/internal/cache"
	"knlcap/internal/knl"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
)

// This file holds the stream kernels as resumable state machines: the
// per-line serialized cost (serialStep), the batched channel flush
// (flushOps and its helper processes), and the chunk loop (streamStep),
// which a spawned kernel (kernelStep in kernel.go) advances from the
// scheduler.
//
// Bookkeeping commits before the primitive it precedes, the pending flush
// observes policy state at the booking instant, and every helper spawn
// (posted write-backs, per-channel flush helpers) consumes one seq number
// in a fixed order, so a stream's event history is a function of the
// machine state alone.

// serialStep charges the non-overlappable cost of one pipelined line
// access: a read, a cached (write-allocate) write, or an NT write.
type serialStep struct {
	m    *Machine
	b    memmode.Buffer
	l    cache.Line
	pd   *pending
	core int
	tile int
	fwd  int
	svc  float64

	kind  uint8
	pc    uint8
	after uint8 // state to resume at once a victim write-back drains
	newSt cache.State

	wb wbState
}

// Serial access kinds.
const (
	skRead = uint8(iota)
	skWrite
	skWriteNT
)

// serialStep states.
const (
	srBegin = uint8(iota)
	srVictim
	srFwdPort
	srMemFinish
	srWriteTail
	srNotify
	srDone
)

func (s *serialStep) init(m *Machine, kind uint8, core int, b memmode.Buffer, l cache.Line, pd *pending) {
	s.m = m
	s.kind = kind
	s.core = core
	s.tile = core / knl.CoresPerTile
	s.b = b
	s.l = l
	s.pd = pd
	s.pc = srBegin
}

// enterInstall commits the L2 tag insert and routes through the victim
// write-back state when the evicted line was dirty.
func (s *serialStep) enterInstall(st cache.State, after uint8) {
	if victim, dirty := s.m.installL2Tags(s.tile, s.l, st); dirty {
		s.wb.start(victim)
		s.after = after
		s.pc = srVictim
		return
	}
	s.pc = after
}

func (s *serialStep) step(c *sim.StepCtx) {
	m := s.m
	for {
		switch s.pc {
		case srBegin:
			cs := m.cores[s.core]
			// One directory read serves the whole juncture: with the
			// tile's bit clear it rules out both local probes.
			owners := m.owners(s.l)
			local := tileBit(owners, s.tile)
			switch s.kind {
			case skRead:
				if lookup(cs.l1, s.l, local).Readable() {
					s.pc = srDone
					c.Use(cs.issue, m.P.L1VecNs)
					return
				}
				if st := lookup(m.tiles[s.tile].l2, s.l, local); st.Readable() {
					svc := m.P.OwnerPortSvcNs
					if st == cache.Modified {
						svc = m.P.OwnerPortSvcMNs
						m.downgradeSiblingL1(s.tile, s.core, s.l)
					}
					// Bookkeeping commits before the port wait so concurrent
					// single-line transactions never observe half-applied state.
					cs.l1.Insert(s.l, cache.Shared)
					s.pc = srDone
					c.Use(m.tiles[s.tile].port, svc)
					return
				}
				if fwd, st, ok := m.forwarder(s.l, owners); ok {
					s.fwd = fwd
					s.svc = m.P.OwnerPortSvcNs
					if st == cache.Modified {
						s.svc = m.P.OwnerPortSvcMNs
					}
					m.tiles[fwd].l2.SetState(s.l, cache.Shared)
					m.downgradeSiblingL1(fwd, -1, s.l)
					if st == cache.Modified {
						m.pendWriteBack(s.pd, s.l)
					}
					s.enterInstall(cache.Forward, srFwdPort)
					continue
				}
				m.pendMemRead(s.pd, s.b, s.l)
				s.newSt = cache.Exclusive
				if owners != 0 {
					s.newSt = cache.Forward
				}
				s.enterInstall(s.newSt, srMemFinish)
				continue

			case skWrite:
				if lookup(cs.l1, s.l, local).Writable() {
					cs.l1.SetState(s.l, cache.Modified)
					m.tiles[s.tile].l2.SetState(s.l, cache.Modified)
					s.pc = srNotify
					c.Use(cs.issue, m.P.StoreSerialNs)
					return
				}
				if lookup(m.tiles[s.tile].l2, s.l, local).Writable() {
					m.tiles[s.tile].l2.SetState(s.l, cache.Modified)
					m.invalidateTileL1s(s.tile, s.l)
					cs.l1.Insert(s.l, cache.Modified)
					// Pipelined stores into the shared L2 ride the half-line
					// write port; the occupancy is far below the read-forward
					// service.
					s.pc = srNotify
					c.Use(m.tiles[s.tile].port, m.P.StoreSerialNs)
					return
				}
				// RFO in a stream: fetch-for-ownership batched on the channels.
				if owners&^(1<<uint(s.tile)) != 0 {
					m.invalidateOthers(s.tile, s.l)
				} else {
					m.pendMemRead(s.pd, s.b, s.l)
				}
				s.enterInstall(cache.Modified, srWriteTail)
				continue

			default: // skWriteNT: invalidate any copies, book the posted write
				if owners != 0 {
					m.invalidateOthers(-1, s.l)
				}
				m.pendMemWrite(s.pd, s.b, s.l)
				s.pc = srNotify
				c.Wait(m.P.StorePostNs)
				return
			}

		case srVictim:
			s.wb.step(m, c)
			if c.Blocked() {
				return
			}
			if s.wb.pc == wbDone {
				s.pc = s.after
			}

		case srFwdPort:
			m.cores[s.core].l1.Insert(s.l, cache.Forward)
			s.pc = srDone
			c.Use(m.tiles[s.fwd].port, s.svc)
			return

		case srMemFinish:
			m.cores[s.core].l1.Insert(s.l, s.newSt)
			s.pc = srDone

		case srWriteTail:
			m.invalidateTileL1s(s.tile, s.l)
			m.cores[s.core].l1.Insert(s.l, cache.Modified)
			s.pc = srNotify
			c.Wait(m.P.StoreSerialNs)
			return

		case srNotify:
			// Pollers are notified after the final wait completes.
			m.notify(s.l)
			s.pc = srDone

		default: // srDone
			return
		}
	}
}

// flushJob is one per-channel batch of a chunk flush.
type flushJob struct {
	kind  knl.MemKind
	idx   int
	n     int
	write bool
}

// flushJoin is the join counter shared by a multi-channel flush's helper
// processes. It is allocated once per stream op and reused across flushes —
// the Signal's waiter list is empty between them, and Signal identity is
// not simulated state.
type flushJoin struct {
	remaining int
	done      *sim.Signal
}

// memJobStep is the per-channel "mem" helper process of a multi-channel
// flush: it serves one flush job and joins.
type memJobStep struct {
	m    *Machine
	j    flushJob
	join *flushJoin
	pc   uint8
}

func (w *memJobStep) Step(c *sim.StepCtx) {
	if w.pc == 0 {
		w.pc = 1
		ch := w.m.Mem.Channel(w.j.kind, w.j.idx)
		if w.j.write {
			ch.ServeWriteCtx(c, w.j.n)
		} else {
			ch.ServeReadCtx(c, w.j.n)
		}
		return
	}
	w.join.remaining--
	if w.join.remaining == 0 {
		w.join.done.Broadcast()
	}
	c.End()
	// The scheduler retires this process without calling Step again, so
	// the frame can go back to the free list now.
	m := w.m
	*w = memJobStep{}
	m.freeMemJobs = append(m.freeMemJobs, w)
}

// newMemJob takes a zeroed helper frame from the machine's free list, or
// allocates one when the list is empty.
func (m *Machine) newMemJob() *memJobStep {
	if n := len(m.freeMemJobs); n > 0 {
		w := m.freeMemJobs[n-1]
		m.freeMemJobs = m.freeMemJobs[:n-1]
		return w
	}
	//lint:ignore hotalloc cold fallback: finished helpers return their frames, so steady state never reaches this allocation
	return &memJobStep{}
}

// drainStep is the fire-and-forget "wb" helper process of a flush: it
// serves the booked async write-backs, one channel per juncture.
type drainStep struct {
	m     *Machine
	async [2][maxChans]int32
	k     int
	ch    int
}

func (w *drainStep) Step(c *sim.StepCtx) {
	for ; w.k < len(w.async); w.k++ {
		for ; w.ch < len(w.async[w.k]); w.ch++ {
			if n := w.async[w.k][w.ch]; n != 0 {
				kind, idx := knl.MemKind(w.k), w.ch
				w.ch++
				w.m.Mem.Channel(kind, idx).ServeWriteCtx(c, int(n))
				return
			}
		}
		w.ch = 0
	}
	c.End()
	m := w.m
	*w = drainStep{}
	m.freeDrains = append(m.freeDrains, w)
}

// newDrain is newMemJob for write-back helper frames.
func (m *Machine) newDrain() *drainStep {
	if n := len(m.freeDrains); n > 0 {
		w := m.freeDrains[n-1]
		m.freeDrains = m.freeDrains[:n-1]
		return w
	}
	//lint:ignore hotalloc cold fallback: finished helpers return their frames, so steady state never reaches this allocation
	return &drainStep{}
}

// streamStep runs one stream op (read/write/copy/triad) chunk by chunk: per
// chunk, the latency bound and MLP depth from the leading
// line, the serialized per-line costs, the batched channel flush, and the
// top-up to the latency bound.
type streamStep struct {
	m    *Machine
	core int
	op   KernelOp
	pd   pending
	sr   serialStep
	join *flushJoin

	srActive bool
	pc       uint8
	i        int // lines completed (offset from the op's start)
	j        int // serial accesses completed within the current chunk
	chunk    int // lines in the current chunk
	nser     int // serial accesses in the current chunk
	lat      float64
}

// streamStep states.
const (
	stChunk = uint8(iota)
	stSerial
	stFlush
	stTopUp
	stDone
)

// startSerial points sr at the j-th serial access of the current chunk.
// Copy issues the chunk's reads then its writes; triad interleaves the two
// source reads then issues the writes.
func (s *streamStep) startSerial() {
	m, op := s.m, &s.op
	switch op.Kind {
	case StreamRead:
		s.sr.init(m, skRead, s.core, op.Src, op.Src.Line(op.SrcFrom+s.i+s.j), &s.pd)
	case StreamWrite:
		kind := skWrite
		if op.NT {
			kind = skWriteNT
		}
		s.sr.init(m, kind, s.core, op.Dst, op.Dst.Line(op.DstFrom+s.i+s.j), &s.pd)
	case StreamCopy:
		if s.j < s.chunk {
			s.sr.init(m, skRead, s.core, op.Src, op.Src.Line(op.SrcFrom+s.i+s.j), &s.pd)
			return
		}
		kind := skWrite
		if op.NT {
			kind = skWriteNT
		}
		s.sr.init(m, kind, s.core, op.Dst, op.Dst.Line(op.DstFrom+s.i+(s.j-s.chunk)), &s.pd)
	default: // StreamTriad
		if s.j < 2*s.chunk {
			b := op.Src
			if s.j%2 == 1 {
				b = op.Src2
			}
			s.sr.init(m, skRead, s.core, b, b.Line(op.SrcFrom+s.i+s.j/2), &s.pd)
			return
		}
		kind := skWrite
		if op.NT {
			kind = skWriteNT
		}
		s.sr.init(m, kind, s.core, op.Dst, op.Dst.Line(op.DstFrom+s.i+(s.j-2*s.chunk)), &s.pd)
	}
}

// flushOps serves the accumulated lines: the async write-backs spawn first, then the per-channel batches — inline
// on c for a single channel, as joined helper processes otherwise. The
// helpers are spawned at the current instant, so their first events ride
// the engine's same-instant lane rather than the heap, and their frames
// come from the machine's free lists (freeMemJobs, freeDrains), so a
// steady stream of flushes allocates none. It reports true when nothing
// was queued (the caller may fall through to the top-up in the same
// juncture).
func (s *streamStep) flushOps(c *sim.StepCtx) bool {
	m, pd := s.m, &s.pd
	var jobs [2 * 2 * maxChans]flushJob
	nj := 0
	for k := range pd.reads {
		for ch := range pd.reads[k] {
			if n := pd.reads[k][ch]; n != 0 {
				jobs[nj] = flushJob{knl.MemKind(k), ch, int(n), false}
				nj++
				pd.reads[k][ch] = 0
			}
		}
	}
	for k := range pd.writes {
		for ch := range pd.writes[k] {
			if n := pd.writes[k][ch]; n != 0 {
				jobs[nj] = flushJob{knl.MemKind(k), ch, int(n), true}
				nj++
				pd.writes[k][ch] = 0
			}
		}
	}
	if pd.nAsync != 0 {
		w := m.newDrain()
		w.m, w.async = m, pd.async
		m.Env.GoSteps("wb", w)
		pd.async = [2][maxChans]int32{}
		pd.nAsync = 0
	}
	switch nj {
	case 0:
		return true
	case 1:
		j := jobs[0]
		ch := m.Mem.Channel(j.kind, j.idx)
		if j.write {
			ch.ServeWriteCtx(c, j.n)
		} else {
			ch.ServeReadCtx(c, j.n)
		}
		return false
	default:
		if s.join == nil {
			//lint:ignore hotalloc one join (and Signal) per stream op, reused across its flushes; the old version allocated a Signal per multi-channel flush
			s.join = &flushJoin{done: sim.NewSignal(m.Env)}
		}
		join := s.join
		join.remaining = nj
		for ji := 0; ji < nj; ji++ {
			w := m.newMemJob()
			w.m, w.j, w.join = m, jobs[ji], join
			m.Env.GoSteps("mem", w)
		}
		c.WaitSignal(join.done)
		return false
	}
}

// run advances the stream op by one juncture (or several, when states
// commit without queueing ops). The caller loops until pc == stDone.
func (s *streamStep) run(c *sim.StepCtx) {
	m := s.m
	for {
		switch s.pc {
		case stChunk:
			if s.i >= s.op.N {
				s.pc = stDone
				return
			}
			op := &s.op
			switch op.Kind {
			case StreamRead:
				first := op.Src.Line(op.SrcFrom + s.i)
				var cls srcClass
				s.lat, cls = m.loadLatencyEstimate(s.core, op.Src, first, m.owners(first))
				s.chunk = m.mlpFor(cls, op.Vector, false)
			case StreamWrite:
				s.chunk = m.P.MLPMem
				// NT chunks retire once the write-combining buffers drain;
				// cached (write-allocate) chunks cannot retire before the RFO
				// fetch of their lines returns — the reason the paper needs
				// NT hints to approach peak.
				s.lat = m.writeDrainLatency(op.Dst)
				if !op.NT {
					first := op.Dst.Line(op.DstFrom + s.i)
					if rfo, _ := m.loadLatencyEstimate(s.core, op.Dst, first, m.owners(first)); rfo > s.lat {
						s.lat = rfo
					}
				}
			default: // StreamCopy, StreamTriad
				first := op.Src.Line(op.SrcFrom + s.i)
				var cls srcClass
				s.lat, cls = m.loadLatencyEstimate(s.core, op.Src, first, m.owners(first))
				s.chunk = m.mlpFor(cls, true, true)
			}
			if s.chunk > op.N-s.i {
				s.chunk = op.N - s.i
			}
			s.nser = s.chunk
			switch op.Kind {
			case StreamCopy:
				s.nser = 2 * s.chunk
			case StreamTriad:
				s.nser = 3 * s.chunk
			}
			c.Mark()
			s.j = 0
			s.pc = stSerial

		case stSerial:
			if s.j >= s.nser {
				s.pc = stFlush
				continue
			}
			if !s.srActive {
				s.startSerial()
				s.srActive = true
			}
			s.sr.step(c)
			if c.Blocked() {
				return
			}
			if s.sr.pc != srDone {
				continue
			}
			s.srActive = false
			s.j++

		case stFlush:
			s.pc = stTopUp
			if !s.flushOps(c) {
				return
			}

		case stTopUp:
			s.i += s.chunk
			s.pc = stChunk
			c.TopUpJit(m, s.lat)
			if c.Blocked() {
				return
			}

		default: // stDone
			return
		}
	}
}
