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
// constant of the jitter-free protocol) replay as recorded. The
// stream kernels' chunk top-up, however, waits lat - (now - chunkStart):
// the remainder depends on the absolute clock and must be *recomputed* at
// replay magnitudes, anchored at the recorded chunk-start position — which
// is why the machine exposes OnChunkStart/OnTopUp alongside sim's OnWait.
// Interpreting [wait d | mark | topup lat] performs the same float64
// operations in the same order as the engine, so the replayed timestamps
// match a continued simulation bit-for-bit, including the last-ULP wobble
// that growing absolute times introduce.
//
// The gate is conservative by construction: any pass whose elapsed time
// the interpreter cannot reproduce (a WaitUntil, a Signal wake-up, a
// Resource queue delay from a concurrent write-back process, a jittered
// draw) fails the self-check and resets the gate, so workloads that are
// not actually periodic simply run the exact legacy loop to completion.
// K-fold agreement is evidence of a fixed point rather than a proof, which
// is why the golden A/B equivalence tests assert bit-identical tables and
// figures with the gate on and off.

import (
	"math"

	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/sim"
	"knlcap/internal/stats"
)

// Time-op kinds of a recorded profile.
const (
	opWait  uint8 = iota // advance the clock by arg
	opMark               // anchor the current clock as the chunk start
	opTopUp              // advance to anchor+arg unless already past it
)

// opTrace records the time program of one measured process through the
// sim.Env.OnWait and machine chunk hooks. Ops of other processes
// (asynchronous write-backs, memory servers) are filtered out; if such a
// process delays the measured one, the elapsed time is no longer
// reproducible from the trace and the self-check rejects the pass.
type opTrace struct {
	m     *machine.Machine
	p     *sim.Proc
	kinds []uint8
	args  []float64
	segs  []int // end index in kinds/args after each closed segment

	// markAt mirrors the engine's chunk anchor so the recorder can re-make
	// the top-up comparison: when the engine will wait out a remainder,
	// the very next OnWait of the measured process is that remainder and
	// must be skipped — the topup op represents it.
	markAt   float64
	skipWait bool
}

// installProc starts observing process p on m. The hooks must be removed
// before the machine is reused (uninstallProc; Env.Reset and Machine.Reset
// also clear them).
func (t *opTrace) installProc(m *machine.Machine, p *sim.Proc) {
	t.m = m
	t.p = p
	m.Env.OnWait = t.onWait
	m.OnChunkStart = t.onChunkStart
	m.OnTopUp = t.onTopUp
}

func (t *opTrace) uninstallProc(m *machine.Machine) {
	m.Env.OnWait = nil
	m.OnChunkStart = nil
	m.OnTopUp = nil
}

func (t *opTrace) onWait(p *sim.Proc, d sim.Time) {
	if p != t.p {
		return
	}
	if t.skipWait {
		t.skipWait = false
		return
	}
	t.kinds = append(t.kinds, opWait)
	t.args = append(t.args, d)
}

func (t *opTrace) onChunkStart(p *sim.Proc) {
	if p != t.p {
		return
	}
	t.kinds = append(t.kinds, opMark)
	t.args = append(t.args, 0)
	t.markAt = t.m.Env.Now()
}

func (t *opTrace) onTopUp(p *sim.Proc, lat float64) {
	if p != t.p {
		return
	}
	t.kinds = append(t.kinds, opTopUp)
	t.args = append(t.args, lat)
	// Same comparison the engine makes right after this hook.
	t.skipWait = t.m.Env.Now()-t.markAt < lat
}

func (t *opTrace) reset() {
	t.kinds = t.kinds[:0]
	t.args = t.args[:0]
	t.segs = t.segs[:0]
	t.skipWait = false
}

// mark closes the current segment (one chase access).
func (t *opTrace) mark() { t.segs = append(t.segs, len(t.kinds)) }

// interpOps advances a clock from start through the op program, performing
// the engine's float64 operations in the engine's order, and returns the
// final clock.
func interpOps(kinds []uint8, args []float64, start float64) float64 {
	vt := start
	anchor := start
	for i, k := range kinds {
		switch k {
		case opWait:
			vt += args[i]
		case opMark:
			anchor = vt
		default: // opTopUp
			if el := vt - anchor; el < args[i] {
				vt += args[i] - el
			}
		}
	}
	return vt
}

// selfCheck reports whether interpreting the recorded program from start
// reproduces end bit-for-bit — i.e. whether every advancement of the clock
// during the timed region is captured by (and recomputable from) the trace.
func (t *opTrace) selfCheck(start, end float64) bool {
	return interpOps(t.kinds, t.args, start) == end
}

// opsEqual compares two op programs bit-for-bit.
func opsEqual(ka []uint8, aa []float64, kb []uint8, ab []float64) bool {
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
	var prevKinds []uint8
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
						vt = interpOps(prevKinds, prevArgs, vt)
						record(vt - s)
					}
				}
			}
		}
		if it >= iters {
			if k > 0 {
				tr.uninstallProc(m)
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
		tr.installProc(m, proc)
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
	kinds []uint8
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
		cp.kinds = make([]uint8, total)
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
		for j := cp.off[slot]; j < cp.off[slot+1]; j++ {
			switch cp.kinds[j] {
			case opWait:
				vt += cp.args[j]
			case opMark:
				anchor = vt
			default: // opTopUp
				if el := vt - anchor; el < cp.args[j] {
					vt += cp.args[j] - el
				}
			}
		}
	}
	return vt
}

// chaseConverged is the gated chase: exact simulated passes until k
// consecutive passes agree, replayed passes after. The measurement runs as
// a spawned chase kernel; the gate lives entirely in the host callbacks,
// which run between the kernel's loads. The bench RNG
// keeps drawing one permutation per pass either way — including for
// replayed passes — so the random stream, and with it every subsequent
// draw, is identical to the ungated loop's.
func chaseConverged(m *machine.Machine, place knl.Place, b memmode.Buffer, o Options,
	prime func(), rng *stats.RNG, perm []int, avgs *[]float64, k int) {
	nl := len(perm)
	visits := o.ChaseLen / nl
	var tr opTrace
	cur, prev := &chaseProfile{}, &chaseProfile{}
	var prevVal, start, vt, total float64
	prevEnd := m.Env.Now()
	run, a, p := 0, 0, 0
	settled := false

	// endPass closes one pass of the (Averages x Passes) accounting grid.
	endPass := func() {
		if p++; p == o.Passes {
			*avgs = append(*avgs, total/float64(o.Passes))
			total, p = 0, 0
			a++
		}
	}

	proc := m.SpawnChase(place, machine.ChaseOps{
		B: b, Perm: perm, Len: o.ChaseLen,
		NextPass: func() bool {
			for {
				if a >= o.Averages {
					tr.uninstallProc(m)
					return false
				}
				if settled {
					// Extrapolate this pass from the settled profile on the
					// virtual clock; no simulation happens.
					rng.PermInto(perm)
					s := vt
					vt = prev.replay(vt, perm, o.ChaseLen, nl, visits)
					total += (vt - s) / float64(o.ChaseLen)
					endPass()
					continue
				}
				prime()
				rng.PermInto(perm)
				tr.reset()
				start = m.Env.Now()
				return true
			}
		},
		AccessDone: tr.mark,
		PassDone: func(elapsed float64) {
			end := m.Env.Now()
			val := elapsed / float64(o.ChaseLen)
			total += val
			// start == prevEnd guards against prime consuming simulated
			// time, which replay (which skips prime) could not reproduce.
			ok := start == prevEnd && tr.selfCheck(start, end)
			cur.build(&tr, perm, nl, visits)
			switch {
			case ok && run > 0 && math.Float64bits(val) == math.Float64bits(prevVal) && cur.equal(prev):
				run++
			case ok:
				run = 1
			default:
				run = 0
			}
			cur, prev = prev, cur
			prevVal, prevEnd = val, end
			if run >= k {
				settled = true
				vt = end
			}
			endPass()
		},
	})
	tr.installProc(m, proc)
}
