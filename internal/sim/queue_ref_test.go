package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// refQueue is the single 4-ary heap the event queue used before it gained
// the same-instant ring, kept as the reference the two-lane queue is
// checked against (TestEventQueueMatchesHeapReference): every event, due
// now or later, takes a push and a pop through the heap.
type refQueue struct{ h []event }

func (q *refQueue) len() int { return len(q.h) }

func (q *refQueue) push(ev event) {
	q.h = append(q.h, ev)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *refQueue) pop() event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	i := 0
	for {
		min := i
		for c := i<<2 + 1; c <= i<<2+4 && c < n; c++ {
			if eventLess(q.h[c], q.h[min]) {
				min = c
			}
		}
		if min == i {
			return top
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
}

// splitmix is a tiny deterministic generator for the randomized tests.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestEventQueueMatchesHeapReference drives the two-lane queue and the
// single-heap reference with the same random schedule: same-instant events
// (the ring, as Env.schedule routes them) and future events on few distinct
// offsets (so timestamps tie across lanes), interleaved with pops that
// advance the clock. Both must pop the identical (at, seq, proc) sequence.
// Phases alternate between growing and draining the queue, so the ring
// wraps, doubles while wrapped, and empties.
func TestEventQueueMatchesHeapReference(t *testing.T) {
	var procs [8]Proc
	for seed := uint64(1); seed <= 16; seed++ {
		rng := seed
		var q eventQueue
		var ref refQueue
		var now Time
		var seq uint64
		popped := 0
		for phase := 0; phase < 12; phase++ {
			popPct := uint64(25)
			if phase%2 == 1 {
				popPct = 70
			}
			for i := 0; i < 1500; i++ {
				r := splitmix(&rng)
				proc := &procs[(r>>8)%uint64(len(procs))]
				switch {
				case r%100 < popPct && ref.len() > 0:
					got, want := q.pop(), ref.pop()
					if got != want {
						t.Fatalf("seed %d pop %d: two-lane queue popped (%v, %d, %p), reference (%v, %d, %p)",
							seed, popped, got.at, got.seq, got.proc, want.at, want.seq, want.proc)
					}
					if got.at < now {
						t.Fatalf("seed %d pop %d: time went backwards (%v < %v)", seed, popped, got.at, now)
					}
					now = got.at
					popped++
				case (r>>32)%2 == 0:
					seq++
					ev := event{at: now, seq: seq, proc: proc}
					q.pushNow(ev)
					ref.push(ev)
				default:
					seq++
					ev := event{at: now + Time(1+(r>>40)%3), seq: seq, proc: proc}
					q.push(ev)
					ref.push(ev)
				}
				if q.len() != ref.len() {
					t.Fatalf("seed %d: queue holds %d events, reference %d", seed, q.len(), ref.len())
				}
			}
		}
		for ref.len() > 0 {
			if got, want := q.pop(), ref.pop(); got != want {
				t.Fatalf("seed %d drain: two-lane queue popped (%v, %d), reference (%v, %d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
		}
		if q.len() != 0 {
			t.Fatalf("seed %d: two-lane queue holds %d events after the reference drained", seed, q.len())
		}
	}
}

// mixedWorker is a random step program over the primitives that schedule
// same-instant events — Wait(0), spawns at now, Signal broadcasts and
// Resource handoffs — plus short future waits that tie across processes.
// Every juncture logs (name, Now, Seq), so any change in dispatch order or
// event count changes the log.
type mixedWorker struct {
	name  string
	rng   uint64
	left  int
	rel   bool // holds res: release at the next juncture
	res   *Resource
	sig   *Signal
	log   *[]string
	done  *int
	child int
}

func (w *mixedWorker) Step(c *StepCtx) {
	e := c.Env()
	//lint:ignore hotalloc test-only stepper; the formatted log is what the test compares
	*w.log = append(*w.log, fmt.Sprintf("%s@%v/%d", w.name, e.Now(), e.Seq()))
	if w.rel {
		w.res.Release()
		w.rel = false
	}
	if w.left == 0 {
		*w.done++
		c.End()
		return
	}
	w.left--
	r := splitmix(&w.rng)
	switch r % 7 {
	case 0:
		c.Wait(0)
	case 1:
		c.Wait(Time((r >> 8) % 3))
	case 2:
		w.child++
		//lint:ignore hotalloc test-only spawn of a same-instant child
		e.GoSteps(fmt.Sprintf("%s.%d", w.name, w.child), stepFunc(func(c *StepCtx) { c.End() }))
		c.Wait(0)
	case 3:
		c.WaitSignal(w.sig)
	case 4:
		c.Use(w.res, Time((r>>8)%2))
	case 5:
		w.sig.Broadcast()
		c.Wait(0)
	default:
		c.Acquire(w.res)
		c.Wait(Time((r >> 8) % 2))
		w.rel = true
	}
}

// TestEnvSameInstantOrderPinned runs mixedWorker programs with a ticker
// process that broadcasts the shared Signal every 2 ns until all workers
// finish. The log digest, its length and the final Seq/Now are
// pinned to the values the single-heap engine produced, so routing
// same-instant events through the ring moved no event.
func TestEnvSameInstantOrderPinned(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		digest  uint64
		entries int
		seq     uint64
		now     Time
	}{
		{1, 0x6a49177a389794b6, 366, 551, 66},
		{2, 0xa586845c5332c1f0, 366, 525, 48},
		{3, 0x89d421b2981b9b37, 366, 534, 58},
	} {
		env := NewEnv()
		res := NewResource(env, "r", 1)
		sig := NewSignal(env)
		var log []string
		done := 0
		const workers = 6
		for i := 0; i < workers; i++ {
			w := &mixedWorker{name: fmt.Sprintf("w%d", i), rng: tc.seed*100 + uint64(i),
				left: 60, res: res, sig: sig, log: &log, done: &done}
			env.GoSteps(w.name, w)
		}
		env.GoSteps("tick", stepFunc(func(c *StepCtx) {
			if done >= workers {
				c.End()
				return
			}
			sig.Broadcast()
			c.Wait(2)
		}))
		now, err := env.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		h := fnv.New64a()
		for _, s := range log {
			_, _ = h.Write(append([]byte(s), 0)) // hash.Hash writes never fail
		}
		if got := h.Sum64(); got != tc.digest || len(log) != tc.entries || env.Seq() != tc.seq || now != tc.now {
			t.Errorf("seed %d: digest %#x entries %d seq %d now %v, want %#x %d %d %v",
				tc.seed, got, len(log), env.Seq(), now, tc.digest, tc.entries, tc.seq, tc.now)
		}
	}
}

// TestWaitFastRefusesWithSameInstantEvent: an event waiting on the ring is
// due now, so a wait must not fuse past it — neither through a direct
// waitFast call nor through a step process that spawns a child at now and
// then waits.
func TestWaitFastRefusesWithSameInstantEvent(t *testing.T) {
	env := NewEnv()
	p := &Proc{env: env, name: "p"}
	env.schedule(p, 0)
	if env.events.n != 1 || len(env.events.h) != 0 {
		t.Fatalf("an event due now went to the heap (ring %d, heap %d)", env.events.n, len(env.events.h))
	}
	if env.waitFast(5) {
		t.Fatal("waitFast fused past an event on the same-instant ring")
	}
	if env.Seq() != 1 || env.Now() != 0 {
		t.Fatalf("refused waitFast moved the engine: seq %d now %v", env.Seq(), env.Now())
	}
	env.events.pop()

	var childAt, parentAt Time = -1, -1
	spawned := false
	env.GoSteps("parent", stepFunc(func(c *StepCtx) {
		if !spawned {
			spawned = true
			env.GoSteps("child", stepFunc(func(c *StepCtx) {
				childAt = c.Now()
				c.End()
			}))
			c.Wait(5)
			return
		}
		parentAt = c.Now()
		c.End()
	}))
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 0 || parentAt != 5 {
		t.Errorf("child ran at %v and parent resumed at %v, want 0 and 5", childAt, parentAt)
	}
}
