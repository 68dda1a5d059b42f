package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"knlcap/internal/bench"
	"knlcap/internal/cache"
	"knlcap/internal/coll"
	"knlcap/internal/core"
	"knlcap/internal/knl"
	"knlcap/internal/machine"
	"knlcap/internal/memo"
	"knlcap/internal/msort"
)

// artifact is one regenerated result and the digest of its values.
type artifact struct {
	name   string
	digest string
}

// digest hashes every field of v, printed in Go syntax: floats print in
// their shortest exact form, so two results share a digest only when they
// are bit-identical.
func digest(v any) string {
	h := sha256.New()
	_, _ = fmt.Fprintf(h, "%#v", v) // a hash never fails to write
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// inputs are one part's generated inputs.
type inputs struct {
	o     bench.Options
	cfgs  []knl.Config
	model *core.Model
	first *machine.Machine // the part's first machine, built in setup
	// memoRoot holds the replay part's per-repetition caches.
	memoRoot string
	memo     memo.Stats // replay: cache traffic summed over repetitions
}

// part is one artifact set: setup builds its inputs from the seed (and its
// first machine), rep regenerates its artifacts once and returns their
// digests.
type part struct {
	name  string
	setup func(seed uint64) *inputs
	rep   func(in *inputs, tr *tracer) []artifact
}

// workload is one benchmark workload: its parts, run in order.
type workload struct {
	name  string
	parts []part
}

func (w workload) setup(seed uint64) []*inputs {
	ins := make([]*inputs, len(w.parts))
	for i, p := range w.parts {
		ins[i] = p.setup(seed)
	}
	return ins
}

// rep regenerates every part's artifacts once; artifact names are prefixed
// with the part's name.
func (w workload) rep(ins []*inputs, tr *tracer) []artifact {
	var arts []artifact
	for i, p := range w.parts {
		for _, a := range p.rep(ins[i], tr) {
			arts = append(arts, artifact{name: p.name + "/" + a.name, digest: a.digest})
		}
	}
	return arts
}

// measure runs fn inside a span and records its result as an artifact.
func measure[T any](tr *tracer, arts *[]artifact, spanName, name string, fn func() T) T {
	var v T
	tr.span(spanName, func() { v = fn() })
	*arts = append(*arts, artifact{name: name, digest: digest(v)})
	return v
}

// options are the CLI defaults at quick effort, serial, seeded.
func options(seed uint64) bench.Options {
	o := bench.DefaultOptions().Quick()
	o.Parallel = 1
	o.Seed = seed
	return o
}

var (
	c2cPart    = part{"c2c", setupC2C, repC2C}
	streamPart = part{"stream", setupStream, repStream}
	syncPart   = part{"sync", setupSync, repSync}
	replayPart = part{"replay", setupReplay, repReplay}
)

// Two workloads, each long enough per run to average over the host's
// speed swings: "walks" loads the protocol walks, tag arrays, convergence
// recorder and memo; "engine" the event heap, stream engine, memory
// channels, flag/atomic kernels and msort's goroutine processes.
var workloads = []workload{
	{name: "walks", parts: []part{c2cPart, replayPart}},
	{name: "engine", parts: []part{streamPart, syncPart}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// c2c: Table I in all five cluster modes, flat memory, jitter on, exact.

func setupC2C(seed uint64) *inputs {
	cfgs := knl.AllConfigs(knl.Flat)
	return &inputs{o: options(seed), cfgs: cfgs, first: machine.New(cfgs[0])}
}

func repC2C(in *inputs, tr *tracer) []artifact {
	var arts []artifact
	o := in.o
	for _, cfg := range in.cfgs {
		mode := "table1/" + cfg.Cluster.String()
		measure(tr, &arts, "bench.chase", mode+"/latency", func() bench.CacheLatencies {
			return bench.MeasureCacheLatencies(cfg, o, 0)
		})
		measure(tr, &arts, "bench.c2c_bw", mode+"/bandwidth", func() bench.CacheBandwidths {
			return bench.MeasureCacheBandwidths(cfg, o, nil)
		})
		measure(tr, &arts, "bench.congestion", mode+"/congestion", func() bench.CongestionResult {
			return bench.MeasureCongestion(cfg, o, 0)
		})
		measure(tr, &arts, "bench.contention", mode+"/contention", func() bench.ContentionResult {
			return bench.MeasureContention(cfg, o, nil)
		})
		measure(tr, &arts, "bench.multiline", mode+"/multiline", func() bench.MultiLineFit {
			return bench.MeasureMultiLine(cfg, o, cache.Exclusive, nil)
		})
	}
	return arts
}

// stream: Table II flat (SNC4) and the Fig 9 triad sweep, both schedules.

var (
	streamThreads = []int{16, 64}
	streamScheds  = []knl.Schedule{knl.FillTiles}
	triadCounts   = []int{1, 8, 32, 128}
)

func setupStream(seed uint64) *inputs {
	cfg := knl.DefaultConfig()
	return &inputs{o: options(seed), cfgs: []knl.Config{cfg}, first: machine.New(cfg)}
}

func repStream(in *inputs, tr *tracer) []artifact {
	var arts []artifact
	cfg := in.cfgs[0]
	measure(tr, &arts, "bench.membw", "table2/flat", func() bench.TableII {
		return bench.MeasureTableII(cfg, in.o, streamThreads, streamScheds)
	})
	for _, sc := range []knl.Schedule{knl.FillTiles, knl.Compact} {
		measure(tr, &arts, "bench.triad", "fig9/"+sc.String(), func() []bench.MemBWPoint {
			return bench.TriadSweep(cfg, in.o, sc, triadCounts)
		})
	}
	return arts
}

// sync: Figs 6-8 (each collective tuned, OMP-style and MPI-style) and the
// 256 KB DRAM panel of Fig 10 with its overhead fit.

var (
	collCounts  = []int{2, 4, 8, 16, 32, 64} // coll.MeasureFigure's default
	sortLines   = 4096
	sortThreads = []int{1, 2, 4, 8, 16, 32, 64}
)

func setupSync(seed uint64) *inputs {
	o := options(seed)
	o.WindowNs = 1e6 // as knl-coll
	cfg := knl.DefaultConfig()
	return &inputs{o: o, cfgs: []knl.Config{cfg}, model: core.Default(), first: machine.New(cfg)}
}

func repSync(in *inputs, tr *tracer) []artifact {
	var arts []artifact
	cfg := in.cfgs[0]
	spans := map[coll.Algorithm]string{coll.Tuned: "coll.tuned", coll.OMP: "coll.omp", coll.MPI: "coll.mpi"}
	for fig, op := range []coll.Op{coll.Barrier, coll.Bcast, coll.Reduce} {
		var pts []coll.FigurePoint
		for _, n := range collCounts {
			pt := coll.FigurePoint{Threads: n}
			for _, alg := range []coll.Algorithm{coll.Tuned, coll.OMP, coll.MPI} {
				var r coll.Result
				tr.span(spans[alg], func() {
					r = coll.Measure(cfg, in.model, in.o, op, alg, coll.DefaultParams(n, knl.Scatter))
				})
				switch alg {
				case coll.Tuned:
					pt.Tuned = r
				case coll.OMP:
					pt.OMP = r
				default:
					pt.MPI = r
				}
			}
			pts = append(pts, pt)
		}
		arts = append(arts, artifact{name: fmt.Sprintf("fig%d", 6+fig), digest: digest(pts)})
	}
	oh := measure(tr, &arts, "msort.simulate", "fig10/overhead", func() core.OverheadModel {
		return msort.FitOverhead(cfg, in.model, knl.DDR, nil)
	})
	measure(tr, &arts, "msort.simulate", "fig10/dram", func() []msort.Figure10Point {
		return msort.Figure10(cfg, in.model, oh, sortLines, knl.DDR, sortThreads)
	})
	return arts
}

// replay: Table I latency (five modes) and Figs 4 and 5 with jitter off and
// the convergence gate on, against a fresh on-disk result cache: a converged
// pass that fills the cache, then a warm pass answered from it.

func setupReplay(seed uint64) *inputs {
	o := bench.DefaultOptions() // full effort: the gate makes it cheap
	o.Parallel = 1
	o.Seed = seed
	o.NoJitter = true
	o.ConvergeAfter = 3
	root := filepath.Join(buildDir, "memo")
	if err := os.MkdirAll(root, 0o755); err != nil {
		panic(err)
	}
	cfgs := knl.AllConfigs(knl.Flat)
	p := machine.DefaultParams()
	p.JitterFrac = 0
	return &inputs{o: o, cfgs: cfgs, memoRoot: root, first: machine.NewWithParams(cfgs[0], p)}
}

func repReplay(in *inputs, tr *tracer) []artifact {
	dir, err := os.MkdirTemp(in.memoRoot, "rep-")
	if err != nil {
		panic(err)
	}
	var arts []artifact
	for _, pass := range []string{"converged", "warm"} {
		c, err := memo.New(dir)
		if err != nil {
			panic(err)
		}
		o := in.o
		o.Memo = c
		tr.span("replay."+pass, func() { arts = append(arts, replayPass(o, in.cfgs, tr)...) })
		s := c.Stats()
		in.memo.Hits += s.Hits
		in.memo.DiskHits += s.DiskHits
		in.memo.Misses += s.Misses
		in.memo.Stores += s.Stores
		in.memo.WriteErrs += s.WriteErrs
		in.memo.DecodeErrs += s.DecodeErrs
	}
	if err := os.RemoveAll(dir); err != nil {
		panic(err)
	}
	return arts
}

// replayPass regenerates the replay artifacts once. Both passes name their
// artifacts alike, so the warm pass is checked against the converged one.
func replayPass(o bench.Options, cfgs []knl.Config, tr *tracer) []artifact {
	var arts []artifact
	for _, cfg := range cfgs {
		measure(tr, &arts, "bench.chase_gated", "table1/"+cfg.Cluster.String()+"/latency", func() bench.CacheLatencies {
			return bench.MeasureCacheLatencies(cfg, o, 0)
		})
	}
	f4 := o // as knl-sweep -fig 4
	f4.Averages = max(f4.Averages/2, 4)
	measure(tr, &arts, "bench.percore", "fig4", func() []bench.PerCoreLatency {
		return bench.MeasurePerCoreLatencies(knl.DefaultConfig(), f4,
			[]cache.State{cache.Modified, cache.Exclusive, cache.Invalid})
	})
	f5 := o // as knl-sweep -fig 5
	f5.Iterations = max(f5.Iterations/2, 4)
	var sizes []int
	for b := 64; b <= 256<<10; b *= 4 {
		sizes = append(sizes, b)
	}
	measure(tr, &arts, "bench.copy_by_size", "fig5", func() []bench.SizePoint {
		return bench.MeasureCopyBySize(knl.DefaultConfig().WithModes(knl.SNC4, knl.CacheMode), f5, sizes)
	})
	return arts
}
