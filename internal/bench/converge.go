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

// mark closes the current segment (one chase access).
func (t *opTrace) mark() { t.segs = append(t.segs, len(t.kinds)) }

// selfCheck reports whether replaying the recorded program from start
// reproduces end bit-for-bit — i.e. whether every advancement of the clock
// during the timed region is captured by (and recomputable from) the trace.
func (t *opTrace) selfCheck(start, end float64) bool {
	vt, _ := sim.Replay(start, start, t.kinds, t.args)
	return vt == end
}

// opsEqual compares two op programs bit-for-bit.
func opsEqual(ka []sim.TimeOp, aa []float64, kb []sim.TimeOp, ab []float64) bool {
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] || math.Float64bits(aa[i]) != math.Float64bits(ab[i]) {
			return false
		}
	}
	return true
}

// runConverged spawns an iteration-style measurement kernel pinned to
// place: iters timed iterations of the body op, machine state
// re-established by setup (at zero simulated cost) before each, elapsed
// nanoseconds reported through record. The caller runs the machine. With
// k <= 0 every iteration is simulated. With k > 0, iterations whose whole
// op program, elapsed value, and self-check agree k times in a row stop
// the simulation; the remaining iterations are interpreted from the
// settled program on a virtual clock, reproducing the exact timings the
// simulator would have produced.
func runConverged(m *machine.Machine, place knl.Place, k, iters int,
	setup func(), body machine.KernelOp, record func(elapsed float64)) {
	var tr opTrace
	var prevKinds []sim.TimeOp
	var prevArgs []float64
	var prevElapsed, start float64
	prevEnd := m.Env.Now()
	run, it := 0, 0
	inBody := false
	proc := m.SpawnKernel(place, func(now float64, _ uint64) (machine.KernelOp, bool) {
		if inBody {
			inBody = false
			elapsed := now - start
			record(elapsed)
			it++
			if k > 0 {
				// start == prevEnd guards against setup consuming simulated
				// time, which replay (which skips setup) could not reproduce.
				ok := start == prevEnd && tr.selfCheck(start, now)
				switch {
				case ok && run > 0 && math.Float64bits(elapsed) == math.Float64bits(prevElapsed) &&
					opsEqual(tr.kinds, tr.args, prevKinds, prevArgs):
					run++
				case ok:
					run = 1
				default:
					run = 0
				}
				prevKinds = append(prevKinds[:0], tr.kinds...)
				prevArgs = append(prevArgs[:0], tr.args...)
				prevElapsed, prevEnd = elapsed, now
				if run >= k {
					for vt := now; it < iters; it++ {
						s := vt
						vt, _ = sim.Replay(vt, vt, prevKinds, prevArgs)
						record(vt - s)
					}
				}
			}
		}
		if it >= iters {
			if k > 0 {
				m.Env.OnOp = nil
			}
			return machine.KernelOp{}, false
		}
		setup()
		tr.reset()
		start = now
		inBody = true
		return body, true
	})
	if k > 0 {
		tr.p = proc
		m.Env.OnOp = tr.onOp
	}
}

// chaseProfile is the canonical per-(line, visit) op profile of one chase
// pass. Successive passes visit the lines in different random orders, so
// raw traces are not comparable access-by-access; keyed by which line an
// access touched and how many times that line had been touched in the
// pass, the profile is permutation-invariant. The mapping is a bijection —
// every block of nl accesses visits each line exactly once, so (line,
// visit) identifies exactly one access — which makes the canonical profile
// a permutation of the per-access trace segments.
type chaseProfile struct {
	off   []int // len slots+1; slot s owns kinds/args[off[s]:off[s+1]]
	kinds []sim.TimeOp
	args  []float64
}

// build canonicalizes the pass trace in tr (one segment per access, access
// i touching line perm[i%nl] on visit i/nl).
func (cp *chaseProfile) build(tr *opTrace, perm []int, nl, visits int) {
	slots := nl * visits
	if cap(cp.off) < slots+1 {
		cp.off = make([]int, slots+1)
	}
	cp.off = cp.off[:slots+1]
	for i := range cp.off {
		cp.off[i] = 0
	}
	segStart := 0
	for i, segEnd := range tr.segs {
		slot := perm[i%nl]*visits + i/nl
		cp.off[slot+1] = segEnd - segStart
		segStart = segEnd
	}
	for s := 0; s < slots; s++ {
		cp.off[s+1] += cp.off[s]
	}
	total := cp.off[slots]
	if cap(cp.kinds) < total {
		cp.kinds = make([]sim.TimeOp, total)
		cp.args = make([]float64, total)
	}
	cp.kinds = cp.kinds[:total]
	cp.args = cp.args[:total]
	segStart = 0
	for i, segEnd := range tr.segs {
		slot := perm[i%nl]*visits + i/nl
		copy(cp.kinds[cp.off[slot]:], tr.kinds[segStart:segEnd])
		copy(cp.args[cp.off[slot]:], tr.args[segStart:segEnd])
		segStart = segEnd
	}
}

// equal compares two canonical profiles bit-for-bit.
func (cp *chaseProfile) equal(o *chaseProfile) bool {
	if len(cp.off) != len(o.off) {
		return false
	}
	for i := range cp.off {
		if cp.off[i] != o.off[i] {
			return false
		}
	}
	return opsEqual(cp.kinds, cp.args, o.kinds, o.args)
}

// replay interprets one extrapolated pass on the virtual clock vt,
// consuming the per-access programs in the access order the pass would
// have used (perm), and returns the advanced clock.
func (cp *chaseProfile) replay(vt float64, perm []int, chaseLen, nl, visits int) float64 {
	anchor := vt
	for i := 0; i < chaseLen; i++ {
		slot := perm[i%nl]*visits + i/nl
		lo, hi := cp.off[slot], cp.off[slot+1]
		vt, anchor = sim.Replay(vt, anchor, cp.kinds[lo:hi], cp.args[lo:hi])
	}
	return vt
}
