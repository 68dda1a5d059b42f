package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// cfgFor parses src (function declarations, no package clause) and builds
// the CFG of the named function.
func cfgFor(t *testing.T, src, name string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return BuildCFG(fd.Body)
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// blockCalling finds the unique block containing a call to the named
// function.
func blockCalling(t *testing.T, g *CFG, callee string) *Block {
	t.Helper()
	var found *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			hit := false
			ast.Inspect(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == callee {
						hit = true
					}
				}
				return true
			})
			if hit {
				if found != nil && found != b {
					t.Fatalf("call to %s appears in two blocks", callee)
				}
				found = b
			}
		}
	}
	if found == nil {
		t.Fatalf("no block calls %s", callee)
	}
	return found
}

// TestCFGPanicGuardIsDoomed: the then-block of a panic guard cannot reach
// the exit, while the code after the guard can — the flow fact hotalloc
// uses to exempt panic-message formatting.
func TestCFGPanicGuardIsDoomed(t *testing.T) {
	g := cfgFor(t, `
func f(v int) int {
	if v < 0 {
		panic(boom(v))
	}
	return ok(v)
}`, "f")
	if b := blockCalling(t, g, "boom"); g.ReachesExit(b) {
		t.Error("panic-guard block reaches exit; should be doomed")
	}
	if b := blockCalling(t, g, "ok"); !g.ReachesExit(b) {
		t.Error("post-guard block does not reach exit")
	}
}

// TestCFGInfiniteLoopPanicIsDoomed: a panic inside an escape-free loop is
// doomed even though the loop head has a back edge.
func TestCFGInfiniteLoopPanicIsDoomed(t *testing.T) {
	g := cfgFor(t, `
func f() {
	for {
		panic(boom())
	}
}`, "f")
	if b := blockCalling(t, g, "boom"); g.ReachesExit(b) {
		t.Error("panic inside infinite loop reaches exit; should be doomed")
	}
}

// TestCFGBranchesRejoin: break and continue route control to the right
// targets; everything in a normal loop reaches the exit.
func TestCFGBranchesRejoin(t *testing.T) {
	g := cfgFor(t, `
func f(vs []int) int {
	s := 0
	for _, v := range vs {
		if v < 0 {
			continue
		}
		if v > 100 {
			break
		}
		s += keep(v)
	}
	return done(s)
}`, "f")
	for _, callee := range []string{"keep", "done"} {
		if b := blockCalling(t, g, callee); !g.ReachesExit(b) {
			t.Errorf("block calling %s does not reach exit", callee)
		}
	}
}

// TestCFGNodesAppearOnce: every statement and control-header expression
// of the function body lands in exactly one block, so a per-block scan
// visits each allocation site once.
func TestCFGNodesAppearOnce(t *testing.T) {
	g := cfgFor(t, `
func f(v int) int {
	if v > 0 {
		v++
	} else {
		v--
	}
	for i := 0; i < v; i++ {
		v += i
	}
	switch v {
	case 1:
		v = 2
	}
	return v
}`, "f")
	seen := map[ast.Node]bool{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if seen[n] {
				t.Errorf("node %T appears in more than one block", n)
			}
			seen[n] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("CFG carries no nodes")
	}
}

// TestCFGRejectsUnmodeledConstructs: a body with goto, a label, select
// or fallthrough gets no graph of its real control flow. It is marked
// Unmodeled, and each flow analyzer that reaches it reports a "lint"
// finding at the construct instead of reading a wrong graph.
func TestCFGRejectsUnmodeledConstructs(t *testing.T) {
	const msg = " is not modeled by the flow analyzers' control-flow graph; write this function with if/for/switch and unlabeled break/continue"
	for _, tc := range []struct{ name, want string }{
		{"goto", "testdata/src/unmodeled/unmodeled.go:16:3: lint: goto statement" + msg},
		{"label", "testdata/src/unmodeled/unmodeled.go:24:1: lint: labeled statement" + msg},
		{"select", "testdata/src/unmodeled/unmodeled.go:36:2: lint: select statement" + msg},
		{"fallthrough", "testdata/src/unmodeled/unmodeled.go:48:3: lint: fallthrough statement" + msg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, a := range []string{"hotalloc", "purity"} {
				got := runOn(t, "fix.example/unmodeled", a)
				found := false
				for _, f := range got {
					found = found || f == tc.want
				}
				if !found {
					t.Errorf("%s: no finding %q; got %v", a, tc.want, got)
				}
			}
		})
	}
}

// assertUnmodeled checks the conservative graph of a body the CFG does
// not model: Unmodeled names the expected construct, the graph is one
// entry block that reaches the exit, and every listed call lands in that
// block, so none of them is exempted as doomed.
func assertUnmodeled(t *testing.T, g *CFG, construct string, callees ...string) {
	t.Helper()
	if g.Unmodeled == nil {
		t.Fatalf("graph not marked Unmodeled; want %s", construct)
	}
	if got := unmodeledName(g.Unmodeled); got != construct {
		t.Errorf("Unmodeled is a %s; want %s", got, construct)
	}
	if len(g.Blocks) != 1 || g.Blocks[0] != g.Entry {
		t.Errorf("unmodeled graph has %d blocks; want the entry block alone", len(g.Blocks))
	}
	for _, callee := range callees {
		if b := blockCalling(t, g, callee); b != g.Entry || !g.ReachesExit(b) {
			t.Errorf("call to %s is not in the exit-reaching entry block", callee)
		}
	}
}

// TestCFGLabeledBreakInSelectLoop: the event-loop shape — a labeled break
// out of a select inside a for — is not modeled. The label is reported
// first (it encloses the select), and the body keeps one block that
// reaches the exit.
func TestCFGLabeledBreakInSelectLoop(t *testing.T) {
	g := cfgFor(t, `
func f(a, b chan int) int {
	s := 0
loop:
	for {
		select {
		case v := <-a:
			s += keep(v)
		case <-b:
			break loop
		}
	}
	return done(s)
}`, "f")
	assertUnmodeled(t, g, "labeled statement", "keep", "done")
}

// TestCFGLabeledContinueInSelectLoop: labeled continue is not modeled
// either. Even the escape-free loop, whose body could only panic or spin,
// is not marked doomed: the conservative graph exempts nothing.
func TestCFGLabeledContinueInSelectLoop(t *testing.T) {
	g := cfgFor(t, `
func f(a chan int) int {
	s := 0
loop:
	for {
		select {
		case v := <-a:
			s += keep(v)
			continue loop
		}
	}
}`, "f")
	assertUnmodeled(t, g, "labeled statement", "keep")

	g = cfgFor(t, `
func f(a, b chan int) int {
	s := 0
loop:
	for {
		select {
		case v := <-a:
			s += keep(v)
			continue loop
		case <-b:
			break loop
		}
	}
	return done(s)
}`, "f")
	assertUnmodeled(t, g, "labeled statement", "keep", "done")
}

// TestCFGSwitchFallthrough: a fallthrough clause is not modeled; the
// switch keeps one block, so its panicking default is not exempted.
func TestCFGSwitchFallthrough(t *testing.T) {
	g := cfgFor(t, `
func f(v int) int {
	switch v {
	case 0:
		first(v)
		fallthrough
	case 1:
		return second(v)
	default:
		panic(boom(v))
	}
}`, "f")
	assertUnmodeled(t, g, "fallthrough statement", "first", "second", "boom")
}

// TestCFGNestedFallthrough: a fallthrough nested in an inner switch marks
// the whole body Unmodeled, outer clauses included.
func TestCFGNestedFallthrough(t *testing.T) {
	g := cfgFor(t, `
func f(v, w int) int {
	switch v {
	case 0:
		switch w {
		case 0:
			inner0(w)
			fallthrough
		case 1:
			return inner1(w)
		default:
			panic(boom(w))
		}
	case 1:
		return outer1(v)
	}
	return done(v)
}`, "f")
	assertUnmodeled(t, g, "fallthrough statement", "inner0", "inner1", "outer1", "done", "boom")
}
