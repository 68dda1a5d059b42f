package analysis

import "testing"

// hotpkgGraph builds the call graph over the hotpkg fixture, whose Engine
// dispatches through the Sink interface.
func hotpkgGraph(t *testing.T) *CallGraph {
	t.Helper()
	pkgs := loadFixtures(t)
	pkg, ok := pkgs["fix.example/hotpkg"]
	if !ok {
		t.Fatal("fixture package fix.example/hotpkg not loaded")
	}
	return BuildCallGraph([]*Package{pkg})
}

func calleeNames(n *CallNode) map[string]bool {
	out := map[string]bool{}
	for _, c := range n.Callees {
		out[c.Func.FullName()] = true
	}
	return out
}

// TestCallGraphStaticEdges: ordinary method and function calls produce
// direct edges.
func TestCallGraphStaticEdges(t *testing.T) {
	g := hotpkgGraph(t)
	step := g.LookupName("(*fix.example/hotpkg.Engine).Step")
	if step == nil {
		t.Fatal("Step not in call graph")
	}
	names := calleeNames(step)
	for _, want := range []string{
		"(*fix.example/hotpkg.Engine).helper",
	} {
		if !names[want] {
			t.Errorf("Step is missing callee %s (has %v)", want, names)
		}
	}
}

// TestCallGraphCHA: the e.sink.Put(v) interface call fans out to the
// interface method and, via class-hierarchy analysis, to MapSink's
// implementation — the edge hotalloc needs to see the map insert behind
// the dynamic dispatch.
func TestCallGraphCHA(t *testing.T) {
	g := hotpkgGraph(t)
	step := g.LookupName("(*fix.example/hotpkg.Engine).Step")
	if step == nil {
		t.Fatal("Step not in call graph")
	}
	names := calleeNames(step)
	if !names["(*fix.example/hotpkg.MapSink).Put"] {
		t.Errorf("CHA edge to MapSink.Put missing (callees: %v)", names)
	}
	if !names["(fix.example/hotpkg.Sink).Put"] {
		t.Errorf("interface-method witness edge missing (callees: %v)", names)
	}
}

// TestCallGraphReachable: the closure of Step includes the dynamic
// callee, excludes Cold, and records Step as every node's witness root.
func TestCallGraphReachable(t *testing.T) {
	g := hotpkgGraph(t)
	step := g.LookupName("(*fix.example/hotpkg.Engine).Step")
	cold := g.LookupName("fix.example/hotpkg.Cold")
	if step == nil || cold == nil {
		t.Fatal("Step or Cold not in call graph")
	}
	witness := g.Reachable([]*CallNode{step})
	put := g.LookupName("(*fix.example/hotpkg.MapSink).Put")
	if w, ok := witness[put]; !ok {
		t.Error("MapSink.Put not reachable from Step")
	} else if w != step {
		t.Errorf("MapSink.Put witness = %v, want Step", w.Func.FullName())
	}
	if _, ok := witness[cold]; ok {
		t.Error("Cold is reachable from Step; should not be")
	}
}

// TestCallGraphTransitiveOverPackages: Machine.StateDigest reaches
// Queue.fold one call deep — the edge statecov's closures are built on.
func TestCallGraphTransitiveOverPackages(t *testing.T) {
	pkgs := loadFixtures(t)
	pkg, ok := pkgs["fix.example/statecov"]
	if !ok {
		t.Fatal("fixture package fix.example/statecov not loaded")
	}
	g := BuildCallGraph([]*Package{pkg})
	digest := g.LookupName("(*fix.example/statecov.Machine).StateDigest")
	fold := g.LookupName("(*fix.example/statecov.Queue).fold")
	if digest == nil || fold == nil {
		t.Fatal("StateDigest or fold not in call graph")
	}
	if _, ok := g.Reachable([]*CallNode{digest})[fold]; !ok {
		t.Error("Queue.fold not reachable from Machine.StateDigest")
	}
}

// TestRunDedupesIdenticalFindings: two analyzer paths reporting the
// identical diagnostic at the identical position collapse to one finding
// in Run's output.
func TestRunDedupesIdenticalFindings(t *testing.T) {
	pkgs := loadFixtures(t)
	pkg, ok := pkgs["fix.example/outpkg"]
	if !ok {
		t.Fatal("fixture package fix.example/outpkg not loaded")
	}
	dup := &Analyzer{
		Name: "determinism", // a known name, so suppression parsing accepts it
		Run: func(pass *Pass) {
			pos := pass.Pkg.Files[0].Package
			pass.Reportf(pos, "duplicate diagnostic")
			pass.Reportf(pos, "duplicate diagnostic")
			pass.Reportf(pos, "distinct diagnostic")
		},
	}
	got := runFindings(fixtureCfg(), []*Package{pkg}, []*Analyzer{dup})
	if len(got) != 2 {
		for _, f := range got {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("Run returned %d findings, want 2 (duplicates collapsed)", len(got))
	}
}
