// Command perfbench is the repository's benchmark: it regenerates paper
// artifacts through the same public functions the CLIs call, measures the
// host cost of doing so, and checks every result against its pinned digest.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload walks --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it repeats the workload for --seconds and reports the
// end-to-end metrics (medians over repetitions, times normalized to the
// reference kernel's nominal speed). With --trace 1 it runs the
// layer suite and one traced repetition of every workload, and reports the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
// every result is correct, 1 when one is wrong, 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"knlcap/internal/bench"
	"knlcap/internal/knl"
	"knlcap/internal/memo"
)

// buildDir holds everything a run leaves behind: the binary, the Go build
// cache, the replay workload's result caches and the written spans.
const buildDir = ".bench_build"

const (
	// setupsPerRep is how many extra times a run sets its workload up
	// before each repetition, so set-up samples span the whole run; setup_s
	// is their median.
	setupsPerRep = 3
	// minReps is the fewest repetitions a run measures, however short
	// --seconds is.
	minReps = 3
	// refWarmup is how many times a run times the reference kernel before
	// its first repetition; it is timed again after every repetition.
	refWarmup = 5
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: walks or engine")
	seed := fs.Uint64("seed", 1, "workload seed (sets bench.Options.Seed)")
	seconds := fs.Int("seconds", 50, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (walks|engine), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// Every measurement point runs serially. With one P the garbage
	// collector's work lands in the measured interval instead of on an idle
	// core. run.sh also makes every collection stop the world
	// (GODEBUG=gcstoptheworld=1): collections then happen at points set by
	// allocation alone, not by how fast the host runs the concurrent
	// marker, so peak memory repeats and timings spread less.
	runtime.GOMAXPROCS(1)
	if _, err := fmt.Fprintln(stdout, metadata(w.name, *seed, *traced)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var res result
	if *traced == 1 {
		res = traceRun(w, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res = endToEnd(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// metadata describes what was measured and on what.
func metadata(workload string, seed uint64, traced int) string {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return fmt.Sprintf("# perfbench workload=%s seed=%d trace=%d commit=%s dirty=%s go=%s gomaxprocs=%d nproc=%d godebug=%q",
		workload, seed, traced, commit, dirty, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), os.Getenv("GODEBUG"))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
func (m metrics) setCount(name string, v float64)         { m.set(name, v, "count") }

// sample is the distribution behind one end-to-end metric.
type sample struct {
	name, unit string
	xs         []float64
}

// result is one run's outcome.
type result struct {
	samples           []sample // summarized on the human-readable lines
	metrics           metrics
	attempted, failed int
	failures          []string
}

func (r *result) add(c *checker) {
	r.attempted += c.attempted
	r.failed += c.failed
	r.failures = append(r.failures, c.failures...)
}

// print writes the human-readable lines and, last, the JSON result.
func (r result) print(out io.Writer) error {
	var b strings.Builder
	for _, s := range r.samples {
		q1, q2, q3 := quartiles(s.xs)
		_, _ = fmt.Fprintf(&b, "%-12s median=%.6g q1=%.6g q3=%.6g n=%d unit=%s\n", s.name, q2, q1, q3, len(s.xs), s.unit)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		_, _ = fmt.Fprintf(&b, "%-32s %.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, f := range r.failures {
		_, _ = fmt.Fprintln(&b, "FAIL", f)
	}
	_, _ = fmt.Fprintf(&b, "fail_frac %g (%d of %d results wrong)\n",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintln(&b, string(line))
	_, err = io.WriteString(out, b.String())
	return err
}

// quartiles returns the first quartile, median and third quartile of xs by
// linear interpolation between order statistics (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		switch {
		case pos <= 0:
			return s[0]
		case pos >= float64(len(s)-1):
			return s[len(s)-1]
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), median(s), at(0.75)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		panic(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				panic(err)
			}
			return kb / 1024
		}
	}
	panic("perfbench: no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the kernel's VmHWM count at the current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// endToEnd repeats the workload for d and reports the host cost of one
// repetition. Times are normalized to the reference kernel's nominal speed
// (see reference.go): each is scaled by refNominalS over the reference's
// time around it, wall by wall and CPU by CPU.
func endToEnd(w workload, seed uint64, d time.Duration) result {
	var refWall, refCPU []float64
	calibrate := func() {
		rw, rc := reference()
		refWall = append(refWall, rw)
		refCPU = append(refCPU, rc)
	}
	for range refWarmup {
		calibrate()
	}
	in := w.setup(seed)
	check := newChecker(w.name, seed)
	var hostSetup, hostWall, hostCPU, setupS, wall, cpu, alloc, rss []float64
	deadline := time.Now().Add(d)
	for len(wall) < minReps || time.Now().Before(deadline) {
		// Between two reference samples: set-ups (their inputs unused),
		// then one repetition.
		var ts []float64
		for range setupsPerRep {
			runtime.GC()
			ts = append(ts, timed(func() { w.setup(seed) })/1e9)
		}
		// Start every repetition from a collected heap with the peak RSS
		// count restarted, so VmHWM afterwards is this repetition's peak.
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: peak RSS covers the whole run:", err)
		}
		a0, c0, t0 := totalAlloc(), cpuSeconds(), time.Now()
		arts := w.rep(in, nil)
		wallS, cpuS := time.Since(t0).Seconds(), cpuSeconds()-c0
		alloc = append(alloc, float64(totalAlloc()-a0)/(1<<20))
		rss = append(rss, peakRSSMB())
		check.add(arts)
		calibrate()

		// Scale by the mean of the two reference samples around them.
		n := len(refWall)
		wallScale := 2 * refNominalS / (refWall[n-2] + refWall[n-1])
		cpuScale := 2 * refNominalS / (refCPU[n-2] + refCPU[n-1])
		for _, t := range ts {
			hostSetup = append(hostSetup, t)
			setupS = append(setupS, t*wallScale)
		}
		hostWall, hostCPU = append(hostWall, wallS), append(hostCPU, cpuS)
		wall, cpu = append(wall, wallS*wallScale), append(cpu, cpuS*cpuScale)
	}
	check.finish()

	res := result{metrics: metrics{}, samples: []sample{
		{"wall_s", "s", wall}, {"cpu_s", "s", cpu}, {"setup_s", "s", setupS}, {"alloc_mb", "MB", alloc}, {"peak_rss_mb", "MB", rss},
		{"host_wall_s", "s", hostWall}, {"host_cpu_s", "s", hostCPU}, {"host_setup_s", "s", hostSetup},
		{"ref_wall_s", "s", refWall}, {"ref_cpu_s", "s", refCPU},
	}}
	for _, s := range res.samples[:5] {
		res.metrics.set(s.name, median(append([]float64(nil), s.xs...)), s.unit)
	}
	res.add(check)
	return res
}

// spanMetrics maps the traced spans to per-layer metrics: the self time of
// every span of that name in one traced repetition of the workload.
var spanMetrics = []struct{ metric, workload, span string }{
	{"bench.chase_ms", "walks", "bench.chase"},
	{"bench.c2c_bw_ms", "walks", "bench.c2c_bw"},
	{"bench.contention_ms", "walks", "bench.contention"},
	{"bench.congestion_ms", "walks", "bench.congestion"},
	{"bench.multiline_ms", "walks", "bench.multiline"},
	{"bench.membw_ms", "engine", "bench.membw"},
	{"bench.triad_ms", "engine", "bench.triad"},
	{"bench.percore_ms", "walks", "bench.percore"},
	{"bench.copy_by_size_ms", "walks", "bench.copy_by_size"},
	{"coll.tuned_ms", "engine", "coll.tuned"},
	{"coll.omp_ms", "engine", "coll.omp"},
	{"coll.mpi_ms", "engine", "coll.mpi"},
	{"msort.simulate_ms", "engine", "msort.simulate"},
}

// traceRun reports the per-layer metrics: the layer suite, one traced
// repetition of every workload (so every run reports every layer), and the
// tracing overhead on w.
func traceRun(w workload, seed uint64, d time.Duration) result {
	res := result{metrics: metrics{}}
	out := res.metrics
	memoRoot := filepath.Join(buildDir, "memo")
	if err := os.MkdirAll(memoRoot, 0o755); err != nil {
		panic(err)
	}
	layerSim(out)
	layerMachine(out)
	layerCache(out)
	layerMesh(out)
	layerExp(out)
	layerMemo(out, memoRoot)
	out.set("bench.converge_ratio", convergeRatio(seed), "ratio")

	tr := newTracer()
	self := map[string]map[string]time.Duration{}
	for i, wl := range workloads {
		in := wl.setup(seed)
		check := newChecker(wl.name, seed)
		tr.run = i
		var arts []artifact
		tr.span("rep."+wl.name, func() { arts = wl.rep(in, tr) })
		check.add(arts)
		check.finish()
		res.add(check)
		self[wl.name] = tr.selfTimes(i)
		for _, pin := range in {
			if pin.memo != (memo.Stats{}) {
				setMemoStats(out, pin.memo)
			}
		}
	}
	for _, sm := range spanMetrics {
		out.set(sm.metric, float64(self[sm.workload][sm.span].Nanoseconds())/1e6, "ms")
	}

	// Tracing overhead: alternate untraced and traced repetitions of w.
	in := w.setup(seed)
	check := newChecker(w.name, seed)
	var plain, withSpans []float64
	deadline := time.Now().Add(d)
	for len(plain) == 0 || time.Now().Before(deadline) {
		for _, t := range []*tracer{nil, tr} {
			tr.run++
			var arts []artifact
			runtime.GC()
			ns := timed(func() { arts = w.rep(in, t) })
			check.add(arts)
			if t == nil {
				plain = append(plain, ns/1e9)
			} else {
				withSpans = append(withSpans, ns/1e9)
			}
		}
	}
	check.finish()
	res.add(check)
	out.set("trace.overhead_s", median(withSpans)-median(plain), "s")

	checkCounts(&res)
	if err := tr.write(filepath.Join(buildDir, "trace"), fmt.Sprintf("%s-seed%d.json", w.name, seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return res
}

// setMemoStats reports the result cache traffic of one replay repetition.
func setMemoStats(out metrics, s memo.Stats) {
	hits := s.Hits + s.DiskHits
	base := hits + s.Misses
	out.set("memo.hit_ratio", float64(hits)/float64(base), "ratio")
	out.setCount("memo.hit_base", float64(base))
	out.setCount("memo.decode_errs", float64(s.DecodeErrs))
}

// convergeRatio is the host time of the exact Table I latency chase over
// that of the convergence-gated one (jitter off, SNC4-flat, no cache).
func convergeRatio(seed uint64) float64 {
	o := options(seed)
	o.NoJitter = true
	cfg := knl.DefaultConfig()
	chase := func(k int) float64 {
		o.ConvergeAfter = k
		return rounds(func() float64 {
			return timed(func() { bench.MeasureCacheLatencies(cfg, o, 0) })
		})
	}
	return chase(0) / chase(3)
}
