package bench

// The ConvergeAfter gate: deterministic, jitter-free measurement loops
// settle into a fixed point where every pass performs bit-identical work.
// Once Options.ConvergeAfter consecutive passes agree — in reported value,
// in the underlying time-op profile, and in a bitwise self-check that
// re-interpreting the profile reproduces the elapsed clock — the remaining
// passes are not simulated at all: their timings are reproduced by
// interpreting the settled profile on a virtual clock with the simulator's
// exact float64 arithmetic.
//
// The profile is a small program, not a list of durations, because the
// engine advances time in two ways. Plain waits (now = now + d with d a
// constant of the jitter-free protocol) replay as recorded. The stream
// kernels' chunk top-up (sim.StepCtx.Mark, then TopUpJit), however, waits
// lat - (now - anchor): the remainder depends on the absolute clock and
// must be *recomputed* at replay magnitudes. The recorder therefore keeps
// the sim.Env.OnOp record of the measured process — [wait d | mark |
// topup lat] — and sim.Replay interprets it with the same float64
// operations in the same order as the engine, so the replayed timestamps
// match a continued simulation bit-for-bit, including the last-ULP wobble
// that growing absolute times introduce.
//
// The gate is conservative by construction: any pass whose elapsed time
// the interpreter cannot reproduce (a WaitUntil, a Signal wake-up, a
// Resource queue delay from a concurrent write-back process, a jittered
// draw) fails the self-check and resets the gate, so workloads that are
// not actually periodic simply run the exact loop to completion.
// K-fold agreement is evidence of a fixed point rather than a proof, which
// is why the golden A/B equivalence tests assert bit-identical tables and
// figures with the gate on and off.

import (
	"math"
	"slices"

	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/sim"
)

// opTrace records the time program of one measured process through
// sim.Env.OnOp. Ops of other processes (asynchronous write-backs, memory
// servers) are filtered out; if such a process delays the measured one,
// the elapsed time is no longer reproducible from the trace and the
// self-check rejects the pass. The hook must be removed before the machine
// is reused (Env.Reset also clears it).
type opTrace struct {
	p     *sim.Proc
	kinds []sim.TimeOp
	args  []float64
	segs  []int // end index in kinds/args after each closed segment
}

func (t *opTrace) onOp(p *sim.Proc, op sim.TimeOp, d sim.Time) {
	if p == t.p {
		t.kinds = append(t.kinds, op)
		t.args = append(t.args, d)
	}
}

func (t *opTrace) reset() {
	t.kinds = t.kinds[:0]
	t.args = t.args[:0]
	t.segs = t.segs[:0]
}

// mark closes the current segment (one access).
func (t *opTrace) mark() { t.segs = append(t.segs, len(t.kinds)) }

// selfCheck reports whether replaying the recorded program from start
// reproduces end bit-for-bit — i.e. whether every advancement of the clock
// during the timed region is captured by (and recomputable from) the trace.
func (t *opTrace) selfCheck(start, end float64) bool {
	vt, _ := sim.Replay(start, start, t.kinds, t.args)
	return vt == end
}

// passLoop is one timed-pass measurement: passes timed passes of n ops
// each, issued by a kernel on core 0. Every single-thread number is
// measured this way — the pointer chases (a pass of ChaseLen dependent
// loads) and the iteration-style copies (a pass of one stream op).
type passLoop struct {
	passes int
	n      int
	// k > 0 enables the convergence gate: once k consecutive passes agree,
	// the remaining ones are replayed instead of simulated.
	k int
	// setup re-establishes the machine state before each simulated pass; it
	// must take no simulated time. Replayed passes skip it.
	setup func()
	// draw runs before every pass, replayed ones included, so that host
	// random streams (the chase's permutation) advance as in the exact loop.
	draw func()
	// op is the pass's one op (n = 1). With line set, access i is instead
	// the single-line op.Kind on line line(i) of op.B; line runs at the
	// instant access i-1 completed and, with the gate on, must depend on i
	// and draw alone.
	op   machine.KernelOp
	line func(i int) int
	// record receives each pass's elapsed time divided by n.
	record func(v float64)
}

// run spawns the loop's kernel and runs the machine to completion. With
// k > 0 it gates: a pass counts towards k when its value, its canonical
// profile and the self-check agree with the previous pass; at k the
// settled profile is replayed for the remaining passes on a virtual clock.
//
// The profile keys access i of a line pass by (line, visit): which line it
// touched and how many times the pass had touched that line before. That
// is a bijection onto [0, n) only when every line is visited equally
// often, so the gate stays off unless n is a multiple of op.B's line count.
func (l passLoop) run(m *machine.Machine) {
	r := &passRun{passLoop: l, prevEnd: m.Env.Now()}
	if r.draw == nil {
		r.draw = func() {}
	}
	if l.line != nil {
		r.nl = l.op.B.NumLines()
		r.visits = l.n / r.nl
		if l.n%r.nl != 0 {
			r.k = 0
		}
	}
	if r.k > 0 {
		r.slots = make([]int, l.n) // an op pass's one slot is 0
	}
	// A closure, not a method value: the kernel takes each op by value, and
	// a method value's wrapper would copy every op once more.
	proc := m.SpawnKernel(knl.Place{}, func(now float64, _ uint64) (machine.KernelOp, bool) {
		if r.i > 0 && r.k > 0 {
			r.tr.mark()
		}
		if (r.i == 0 || r.i == r.n) && !r.turn(now) {
			return machine.KernelOp{}, false
		}
		i := r.i
		r.i++
		if r.line == nil {
			return r.op, true
		}
		li := r.line(i)
		if r.k > 0 {
			r.slots[i] = li*r.visits + i/r.nl
		}
		return machine.KernelOp{Kind: r.op.Kind, B: r.op.B, Li: li}, true
	})
	if r.k > 0 {
		r.tr.p = proc
		m.Env.OnOp = r.tr.onOp
	}
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	m.Env.OnOp = nil
}

// passRun is the state of one passLoop run, one allocation for the
// kernel's lifetime. Past the first passes, which grow the trace and
// profile buffers, a run allocates nothing per pass or per access.
type passRun struct {
	passLoop
	tr opTrace
	// prof is the canonical profile of the last pass while streak > 0.
	prof profile
	// slots[i] is access i's slot in the profile of the current pass.
	slots  []int
	nl     int // lines of op.B, for a line pass
	visits int // visits per line and pass, for a line pass
	// start is the current pass's start; prevVal and prevEnd are the value
	// and end of the previous pass.
	start, prevVal, prevEnd float64
	streak                  int // consecutive agreeing passes
	pass                    int // passes done, simulated or replayed
	i                       int // ops issued in the current pass
}

// turn runs between passes, at the instant the kernel reaches it: it
// closes the pass that just completed, if any (record it, run the gate and,
// once settled, replay the remaining passes), then opens the next one
// (setup, draw) or reports that none is left.
func (r *passRun) turn(now float64) bool {
	if r.i == r.n {
		val := (now - r.start) / float64(r.n)
		r.record(val)
		r.pass++
		if r.k > 0 && r.settled(now, val) {
			for vt := now; r.pass < r.passes; r.pass++ {
				r.draw()
				if r.line != nil {
					for i := range r.slots {
						r.slots[i] = r.line(i)*r.visits + i/r.nl
					}
				}
				s := vt
				vt = r.prof.replay(vt, r.slots)
				r.record((vt - s) / float64(r.n))
			}
		}
	}
	r.i = 0
	if r.pass >= r.passes {
		return false
	}
	if r.setup != nil {
		r.setup()
	}
	r.draw()
	r.tr.reset()
	r.start = now
	return true
}

// settled runs the gate on the pass that ended at now with value val and
// reports whether k consecutive passes now agree.
func (r *passRun) settled(now, val float64) bool {
	// start == prevEnd guards against setup consuming simulated time, which
	// replay (which skips setup) could not reproduce.
	ok := r.start == r.prevEnd && r.tr.selfCheck(r.start, now)
	switch {
	case !ok:
		r.streak = 0
	case r.streak > 0 && math.Float64bits(val) == math.Float64bits(r.prevVal) && r.prof.matches(&r.tr, r.slots):
		r.streak++ // prof already holds this pass's canonical profile
	default:
		r.prof.build(&r.tr, r.slots)
		r.streak = 1
	}
	r.prevVal, r.prevEnd = val, now
	return r.streak >= r.k
}

// profile is the canonical op profile of one pass: the per-access trace
// segments reordered by slot. Successive chase passes visit the lines in
// different random orders, so raw traces are not comparable
// access-by-access; keyed by (line, visit) slots, the profile is
// permutation-invariant. An iteration is the one-slot case.
type profile struct {
	off   []int // len slots+1; slot s owns kinds/args[off[s]:off[s+1]]
	kinds []sim.TimeOp
	args  []float64
}

// build canonicalizes the pass trace in tr (one segment per access,
// access i landing in slots[i]).
func (cp *profile) build(tr *opTrace, slots []int) {
	n := len(slots)
	if cap(cp.off) < n+1 {
		cp.off = make([]int, n+1)
	}
	cp.off = cp.off[:n+1]
	for i := range cp.off {
		cp.off[i] = 0
	}
	segStart := 0
	for i, segEnd := range tr.segs {
		cp.off[slots[i]+1] = segEnd - segStart
		segStart = segEnd
	}
	for s := 0; s < n; s++ {
		cp.off[s+1] += cp.off[s]
	}
	total := cp.off[n]
	if cap(cp.kinds) < total {
		cp.kinds = make([]sim.TimeOp, total)
		cp.args = make([]float64, total)
	}
	cp.kinds = cp.kinds[:total]
	cp.args = cp.args[:total]
	segStart = 0
	for i, segEnd := range tr.segs {
		s := slots[i]
		copy(cp.kinds[cp.off[s]:], tr.kinds[segStart:segEnd])
		copy(cp.args[cp.off[s]:], tr.args[segStart:segEnd])
		segStart = segEnd
	}
}

// matches reports whether the pass trace in tr, canonicalized by slots as
// build would, equals cp bit-for-bit.
func (cp *profile) matches(tr *opTrace, slots []int) bool {
	if len(cp.off) != len(tr.segs)+1 {
		return false
	}
	segStart := 0
	for i, segEnd := range tr.segs {
		lo, hi := cp.off[slots[i]], cp.off[slots[i]+1]
		if hi-lo != segEnd-segStart || !slices.Equal(cp.kinds[lo:hi], tr.kinds[segStart:segEnd]) {
			return false
		}
		for j, a := range tr.args[segStart:segEnd] {
			if math.Float64bits(a) != math.Float64bits(cp.args[lo+j]) {
				return false
			}
		}
		segStart = segEnd
	}
	return true
}

// replay interprets one extrapolated pass on the virtual clock vt,
// consuming the per-access programs in slot order, and returns the
// advanced clock.
func (cp *profile) replay(vt float64, slots []int) float64 {
	anchor := vt
	for _, s := range slots {
		lo, hi := cp.off[s], cp.off[s+1]
		vt, anchor = sim.Replay(vt, anchor, cp.kinds[lo:hi], cp.args[lo:hi])
	}
	return vt
}
