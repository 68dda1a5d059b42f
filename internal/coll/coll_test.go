package coll

import (
	"testing"

	"knlcap/internal/bench"
	"knlcap/internal/core"
	"knlcap/internal/knl"
)

func quick() bench.Options {
	o := bench.DefaultOptions().Quick()
	o.Iterations = 8
	o.WindowNs = 4e5
	return o
}

func mustMeasure(t *testing.T, op Op, alg Algorithm, threads int, sched knl.Schedule) Result {
	t.Helper()
	cfg := knl.DefaultConfig()
	model := core.Default()
	res := Measure(cfg, model, quick(), op, alg, DefaultParams(threads, sched))
	if !res.Validated {
		t.Fatalf("%v/%v with %d threads: semantics validation failed", op, alg, threads)
	}
	if res.Summary.Med <= 0 {
		t.Fatalf("%v/%v: non-positive median %v", op, alg, res.Summary.Med)
	}
	return res
}

func TestAllCollectivesValidate(t *testing.T) {
	for _, op := range []Op{Barrier, Bcast, Reduce} {
		for _, alg := range []Algorithm{Tuned, OMP, MPI} {
			for _, n := range []int{2, 8, 32} {
				mustMeasure(t, op, alg, n, knl.Scatter)
			}
		}
	}
}

func TestFillTilesSchedule(t *testing.T) {
	// 64 threads fill-tiles: two threads per tile exercises the intra-tile
	// stages of the tuned algorithms.
	for _, op := range []Op{Barrier, Bcast, Reduce} {
		mustMeasure(t, op, Tuned, 64, knl.FillTiles)
	}
}

func TestTunedBeatsBaselines(t *testing.T) {
	for _, op := range []Op{Barrier, Bcast, Reduce} {
		tuned := mustMeasure(t, op, Tuned, 32, knl.Scatter)
		omp := mustMeasure(t, op, OMP, 32, knl.Scatter)
		mpi := mustMeasure(t, op, MPI, 32, knl.Scatter)
		if tuned.Summary.Med >= omp.Summary.Med {
			t.Errorf("%v: tuned (%.0f ns) not faster than OMP baseline (%.0f ns)",
				op, tuned.Summary.Med, omp.Summary.Med)
		}
		if tuned.Summary.Med >= mpi.Summary.Med {
			t.Errorf("%v: tuned (%.0f ns) not faster than MPI baseline (%.0f ns)",
				op, tuned.Summary.Med, mpi.Summary.Med)
		}
	}
}

func TestSpeedupMagnitudes(t *testing.T) {
	// The paper reports up to 7x (barrier) / 5x (reduce) over OpenMP and
	// 24x/13x/14x over MPI. Exact factors depend on the real runtimes we
	// replaced with synthetic baselines; require the *magnitude*: >=2x over
	// the shared-memory baseline and >=4x over the message-passing one at
	// 64 threads.
	cfg := knl.DefaultConfig()
	model := core.Default()
	o := quick()
	for _, op := range []Op{Barrier, Reduce} {
		p := DefaultParams(64, knl.Scatter)
		tuned := Measure(cfg, model, o, op, Tuned, p)
		omp := Measure(cfg, model, o, op, OMP, p)
		mpi := Measure(cfg, model, o, op, MPI, p)
		if r := omp.Summary.Med / tuned.Summary.Med; r < 2 {
			t.Errorf("%v: OMP speedup %.1fx < 2x", op, r)
		}
		if r := mpi.Summary.Med / tuned.Summary.Med; r < 4 {
			t.Errorf("%v: MPI speedup %.1fx < 4x", op, r)
		}
	}
}

func TestModelEnvelopeBracketsTuned(t *testing.T) {
	// Figures 6-8: the min-max model (black shadow) captures the measured
	// tuned performance. The paper notes the model overestimates at 32/64
	// threads, so require median <= worst and best <= ~1.5x median.
	for _, op := range []Op{Barrier, Bcast, Reduce} {
		for _, n := range []int{8, 32, 64} {
			res := mustMeasure(t, op, Tuned, n, knl.Scatter)
			if res.ModelLo <= 0 || res.ModelHi <= res.ModelLo {
				t.Fatalf("%v n=%d: bad envelope [%v,%v]", op, n, res.ModelLo, res.ModelHi)
			}
			if res.Summary.Med > res.ModelHi.Float() {
				t.Errorf("%v n=%d: measured %.0f above worst-case model %.0f",
					op, n, res.Summary.Med, res.ModelHi)
			}
			if res.ModelLo.Float() > res.Summary.Med*2.2 {
				t.Errorf("%v n=%d: best-case model %.0f far above measured %.0f",
					op, n, res.ModelLo, res.Summary.Med)
			}
		}
	}
}

func TestCollectivesScaleWithThreads(t *testing.T) {
	small := mustMeasure(t, Barrier, Tuned, 4, knl.Scatter)
	large := mustMeasure(t, Barrier, Tuned, 64, knl.Scatter)
	if large.Summary.Med <= small.Summary.Med {
		t.Errorf("64-thread barrier (%.0f) not slower than 4-thread (%.0f)",
			large.Summary.Med, small.Summary.Med)
	}
}

func TestMeasureFigureAndSpeedups(t *testing.T) {
	o := quick()
	o.Iterations = 5
	pts := MeasureFigure(knl.DefaultConfig(), core.Default(), o, Barrier,
		knl.Scatter, []int{4, 16})
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	omp, mpi := MaxSpeedups(pts)
	if omp <= 1 || mpi <= 1 {
		t.Errorf("speedups omp=%.1f mpi=%.1f, want > 1", omp, mpi)
	}
	for _, p := range pts {
		if !p.Tuned.Validated || !p.OMP.Validated || !p.MPI.Validated {
			t.Error("figure point failed validation")
		}
	}
}

func TestGroupLayout(t *testing.T) {
	places := knl.Pin(knl.FillTiles, knl.ActiveTiles, 8)
	g := buildGroup(places)
	if len(g.leaders) != 4 {
		t.Fatalf("8 threads fill-tiles should give 4 tile nodes, got %d", len(g.leaders))
	}
	for node, lr := range g.leaders {
		if !g.leader[lr] || g.nodeOf[lr] != node {
			t.Errorf("leader bookkeeping broken at node %d", node)
		}
	}
	total := len(g.leaders)
	for _, f := range g.follows {
		total += len(f)
	}
	if total != 8 {
		t.Errorf("group covers %d threads, want 8", total)
	}
}

func TestBinomialEdges(t *testing.T) {
	parent, children := binomialEdges(8)
	if parent[0] != -1 {
		t.Error("root must have no parent")
	}
	for r := 1; r < 8; r++ {
		if parent[r] != r&(r-1) {
			t.Errorf("parent[%d] = %d, want %d", r, parent[r], r&(r-1))
		}
	}
	if len(children[0]) != 3 {
		t.Errorf("root children = %v, want 3 (4,2,1)", children[0])
	}
}

func TestIndexTreeBFS(t *testing.T) {
	tr := core.KAryTree(7, 2)
	ti := indexTree(tr, 7)
	if ti.parent[0] != -1 || len(ti.children[0]) != 2 {
		t.Fatalf("root indexing wrong: %+v", ti)
	}
	// Every non-root node has a consistent parent/child relation.
	for node := 1; node < 7; node++ {
		p := ti.parent[node]
		found := false
		for _, c := range ti.children[p] {
			if c == node {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d missing from children of %d", node, p)
		}
	}
}
