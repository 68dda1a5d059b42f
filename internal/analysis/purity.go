package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// purityBanned are the import paths whose calls the purity analyzer
// forbids on hook paths: wall-clock time, the global random source, and
// the operating system.
var purityBanned = map[string]bool{"math/rand": true, "os": true, "time": true}

// Purity guards the replay contract of the convergence gate and the
// result cache: the op-trace hook (opTrace.onOp on sim.Env.OnOp) records
// the op streams that convergence detection compares bit-for-bit, and
// the memo encode path serializes results into the content-addressed
// cache. Both replays are only sound if those paths are deterministic
// functions of the simulation — so no function on their call-graph
// closure may call into time, math/rand, or os, or write a package-level
// variable. Like hotalloc, reachability comes from the shared CHA call
// graph and doomed (panic-only) blocks are exempt: a panic guard may
// format its last words however it likes.
//
// When none of the configured roots resolve in the loaded package set,
// the analyzer skips silently (a knl-lint run over a package subset).
var Purity = &Analyzer{
	Name: "purity",
	Doc:  "convergence/memo hook paths must not call time, math/rand, or os, or write package-level variables",
	RunProgram: func(pass *ProgramPass) {
		runPurity(pass)
	},
}

func runPurity(pass *ProgramPass) {
	roots, _ := resolveRoots(pass.Graph, pass.Cfg.PurityRoots)
	if len(roots) == 0 {
		return
	}
	witness := pass.Graph.Reachable(roots)
	var nodes []*CallNode
	for n := range witness {
		if n.Decl != nil && n.Decl.Body != nil {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].Func.FullName() < nodes[j].Func.FullName()
	})
	for _, n := range nodes {
		s := &purityScanner{pass: pass, info: n.Pkg.Info, rootName: witness[n].Func.FullName()}
		cfg := pass.flowGraph(n.Decl.Body)
		for _, blk := range cfg.Blocks {
			if !cfg.ReachesExit(blk) {
				continue // doomed: every path out panics
			}
			for _, node := range blk.Nodes {
				s.scan(node)
			}
		}
	}
}

// purityScanner flags impure constructs within one reachable function.
type purityScanner struct {
	pass     *ProgramPass
	info     *types.Info
	rootName string
}

func (s *purityScanner) scan(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := staticCallee(s.info, n)
			if fn != nil && fn.Pkg() != nil && purityBanned[fn.Pkg().Path()] && !isMethod(fn) {
				s.pass.Reportf(n.Pos(), "call to %s.%s on the hook path from %s; hooks must stay a pure function of the simulation",
					fn.Pkg().Name(), fn.Name(), s.rootName)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				s.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			s.checkWrite(n.X)
		}
		return true
	})
}

// checkWrite flags assignment targets rooted in a package-level variable
// (the variable itself or an element/field of it).
func (s *purityScanner) checkWrite(lhs ast.Expr) {
	id := rootIdent(lhs)
	if id == nil {
		return
	}
	v, ok := s.info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return
	}
	if v.Parent() == v.Pkg().Scope() {
		s.pass.Reportf(lhs.Pos(), "write to package-level %s on the hook path from %s; hooks must stay a pure function of the simulation",
			v.Name(), s.rootName)
	}
}

// isMethod reports whether fn has a receiver. Impurity enters a hook
// path through a banned package's entry points (time.Now, rand.Float64,
// os.Getenv); a method on a value already in hand ((time.Time).UnixNano)
// is a pure function of its receiver, and flagging it would double-report
// every time.Now().X() chain.
func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier of an assignment target, nil when the base is not an
// identifier (a call result, a composite literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
