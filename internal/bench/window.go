package bench

import (
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memmode"
	"knlcap/internal/stats"
)

// RunWindows executes iters synchronized iterations across the given
// places. Every iteration starts at a common window boundary (the TSC
// window scheme of the Xeon Phi benchmarks, with per-thread skew); the
// value recorded per iteration is the maximum duration over threads.
//
// Each rank runs a spawned kernel whose per-iteration work is the kernel
// program produced by bodyFor (a fresh program per window, driven to
// completion inside it). setup (optional, may be nil) runs at zero
// simulated cost before each iteration, with the machine quiescent: all
// ranks arrive early at the window boundary, and rank 0 runs setup at that
// quiescent point.
func RunWindows(m *machine.Machine, places []knl.Place, o Options,
	setup func(iter int),
	bodyFor func(rank, iter int) machine.Program) []float64 {

	perIter := make([][]float64, o.Iterations)
	for i := range perIter {
		perIter[i] = make([]float64, len(places))
	}
	skews := make([]float64, len(places))
	rng := stats.NewRNG(o.Seed ^ 0x77)
	for i := range skews {
		skews[i] = rng.Float64() * 10 // ns of TSC-alignment skew
	}
	for r := range places {
		r := r
		it := 0
		phase := 0
		var start float64
		var body machine.Program
		m.SpawnKernel(places[r], func(now float64, prev uint64) (machine.KernelOp, bool) {
			for {
				switch phase {
				case 0: // arrive early at the next window boundary
					if it >= o.Iterations {
						return machine.KernelOp{}, false
					}
					phase = 1
					return machine.KernelOp{Kind: machine.StreamSync,
						At: float64(it+1)*o.WindowNs - 50}, true
				case 1: // quiescent point: rank 0 runs the zero-cost setup
					if r == 0 && setup != nil {
						setup(it)
					}
					phase = 2
					return machine.KernelOp{Kind: machine.StreamSync,
						At: float64(it+1)*o.WindowNs + skews[r]}, true
				case 2: // window boundary reached: start the timed body
					body = bodyFor(r, it)
					start = now
					phase = 3
				case 3: // delegate to the body program until it finishes
					if op, ok := body(now, prev); ok {
						return op, true
					}
					perIter[it][r] = now - start
					it++
					body = nil
					phase = 0
				}
			}
		})
	}
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	maxes := make([]float64, o.Iterations)
	for i, durs := range perIter {
		maxes[i] = stats.Max(durs)
	}
	return maxes
}

// OpsProgram returns a kernel program that emits the given ops in order.
func OpsProgram(ops ...machine.KernelOp) machine.Program {
	i := 0
	return func(now float64, prev uint64) (machine.KernelOp, bool) {
		if i >= len(ops) {
			return machine.KernelOp{}, false
		}
		op := ops[i]
		i++
		return op, true
	}
}

// RunStreamWindows is RunWindows for single-op bodies: each window's work
// is the one KernelOp produced by opFor.
func RunStreamWindows(m *machine.Machine, places []knl.Place, o Options,
	setup func(iter int),
	opFor func(rank, iter int) machine.KernelOp) []float64 {

	return RunWindows(m, places, o, setup, func(rank, iter int) machine.Program {
		done := false
		return func(now float64, prev uint64) (machine.KernelOp, bool) {
			if done {
				return machine.KernelOp{}, false
			}
			done = true
			return opFor(rank, iter), true
		}
	})
}

// TSCResolutionNs is the measured resolution of the timestamp-counter read
// the paper reports ("We measure a resolution of 10 nanoseconds in the
// instruction that reads the TSC counter"); calibration readings are
// quantized to it.
const TSCResolutionNs = 10

// SkewCalibration is the result of the TSC-skew measurement that precedes
// window-synchronized benchmarking (paper Section III-A).
type SkewCalibration struct {
	// EstimatedNs[i] is the estimated clock offset of thread i relative to
	// thread 0.
	EstimatedNs []float64
	// ResidualNs[i] is the estimation error against the injected true skew.
	ResidualNs []float64
	// MaxAbsResidual summarizes calibration quality.
	MaxAbsResidual float64
}

// CalibrateTSC simulates the paper's skew calibration: rank 0 ping-pongs a
// flag line with every other thread; the peer's timestamp reply, centered
// on the master's send/receive midpoint, estimates the offset. trueSkewNs
// injects per-thread clock offsets (the quantity to recover); the
// calibration never sees them directly — only quantized TSC readings.
func CalibrateTSC(cfg knl.Config, trueSkewNs []float64) SkewCalibration {
	n := len(trueSkewNs)
	m := machine.New(cfg)
	places := placesFor(knl.Scatter, n)
	tsc := func(rank int, now float64) float64 {
		raw := now + trueSkewNs[rank]
		return float64(int64(raw/TSCResolutionNs)) * TSCResolutionNs
	}
	flags := make([]struct{ ping, pong memmodeBuffer }, n)
	for i := 1; i < n; i++ {
		flags[i].ping = m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
		flags[i].pong = m.Alloc.MustAlloc(knl.DDR, 0, knl.LineSize)
	}
	est := make([]float64, n)
	const rounds = 8
	master := &machine.Script{}
	for i := 1; i < n; i++ {
		i := i
		var sum, t0 float64
		for r := 1; r <= rounds; r++ {
			r := r
			master.Do(func() { t0 = tsc(0, m.Env.Now()) })
			master.StoreWord(flags[i].ping, 0, uint64(r))
			master.WaitWordGE(flags[i].pong, 0, uint64(r)*1e9, func(peerTSC uint64) {
				t1 := tsc(0, m.Env.Now())
				sum += float64(peerTSC-uint64(r)*1e9) - (t0+t1)/2
			})
		}
		master.Do(func() { est[i] = sum / rounds })
	}
	m.SpawnKernel(places[0], master.Program())
	for i := 1; i < n; i++ {
		i := i
		peer := &machine.Script{}
		for r := 1; r <= rounds; r++ {
			r := r
			peer.WaitWordGE(flags[i].ping, 0, uint64(r), nil)
			// Reply with the local TSC reading encoded above a round tag.
			peer.StoreWordFn(flags[i].pong, 0, func() uint64 {
				return uint64(r)*1e9 + uint64(tsc(i, m.Env.Now()))
			})
		}
		m.SpawnKernel(places[i], peer.Program())
	}
	if _, err := m.Run(); err != nil {
		panic(err)
	}
	out := SkewCalibration{EstimatedNs: est, ResidualNs: make([]float64, n)}
	for i := range est {
		out.ResidualNs[i] = est[i] - trueSkewNs[i] + trueSkewNs[0]
		if r := out.ResidualNs[i]; r > out.MaxAbsResidual || -r > out.MaxAbsResidual {
			if r < 0 {
				r = -r
			}
			out.MaxAbsResidual = r
		}
	}
	return out
}

// memmodeBuffer keeps the struct literal above readable.
type memmodeBuffer = memmode.Buffer
