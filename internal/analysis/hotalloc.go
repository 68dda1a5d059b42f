package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotAlloc guards the 0 allocs/op contract of the simulator hot paths
// (PRs 2 and 4): from every function annotated //knl:hotpath it walks the
// call graph — through static calls and, via CHA, through interface
// dispatch — and flags allocation-causing constructs in every reachable
// function body:
//
//   - composite literals that escape (&T{...}) and slice/map literals
//   - make and new
//   - append without capacity evidence (x = append(x, ...) — growth
//     amortized against the retained backing array — is accepted)
//   - map inserts and closures (FuncLit)
//   - calls into package fmt, and interface boxing (a non-pointer-shaped
//     concrete value converted or passed to an interface)
//   - non-constant string concatenation
//
// Flow matters twice. First, only functions the call graph actually
// reaches from a root are scanned, so cold helpers in the same file stay
// free to allocate. Second, within a reachable function the CFG's
// reaches-exit analysis exempts doomed blocks: a panic guard's
// fmt.Sprintf runs at most once per process lifetime and is not a
// hot-path allocation.
//
// The analyzer cannot see into functions without source in the loaded set
// (stdlib leaves); the fmt rule covers the dominant offender, and the
// -benchmem gate in ci.sh is the dynamic backstop for the rest.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no allocation-causing constructs on call paths from //knl:hotpath roots, outside doomed (panic-only) blocks",
	RunProgram: func(pass *ProgramPass) {
		runHotAlloc(pass)
	},
}

func runHotAlloc(pass *ProgramPass) {
	var roots []*CallNode
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !isHotPathRoot(fd) {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					if n := pass.Graph.Lookup(fn); n != nil {
						roots = append(roots, n)
					}
				}
			}
		}
	}
	if len(roots) == 0 {
		return
	}
	sort.Slice(roots, func(i, j int) bool {
		return roots[i].Func.FullName() < roots[j].Func.FullName()
	})

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
		s := &hotScanner{
			pass:       pass,
			info:       n.Pkg.Info,
			root:       witness[n].Func.FullName(),
			selfAppend: map[*ast.CallExpr]bool{},
			handledLit: map[*ast.CompositeLit]bool{},
		}
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

// hotScanner flags allocation sites within one reachable function.
type hotScanner struct {
	pass *ProgramPass
	info *types.Info
	root string
	// selfAppend marks append calls with capacity evidence, discovered at
	// their enclosing assignment before the call itself is visited.
	selfAppend map[*ast.CallExpr]bool
	// handledLit marks composite literals already reported through an
	// enclosing &T{...}, to avoid double findings.
	handledLit map[*ast.CompositeLit]bool
}

func (s *hotScanner) report(n ast.Node, what string) {
	s.pass.Reportf(n.Pos(), "%s on hot path from %s", what, s.root)
}

func (s *hotScanner) scan(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.report(n, "closure creation")
			return false // its body is not part of this hot path's CFG
		case *ast.AssignStmt:
			s.assign(n)
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if _, isMap := typeUnder(s.info.TypeOf(idx.X)).(*types.Map); isMap {
					s.report(idx, "map insert")
				}
			}
		case *ast.UnaryExpr:
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
				s.handledLit[lit] = true
				s.report(n, "escaping composite literal (&T{...})")
			}
		case *ast.CompositeLit:
			s.compositeLit(n)
		case *ast.CallExpr:
			s.call(n)
		case *ast.BinaryExpr:
			s.binary(n)
		}
		return true
	})
}

// assign flags map inserts and records self-appends (capacity evidence)
// before Inspect descends into the RHS calls.
func (s *hotScanner) assign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if _, isMap := typeUnder(s.info.TypeOf(idx.X)).(*types.Map); isMap {
				s.report(idx, "map insert")
			}
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !s.isBuiltin(call, "append") {
			continue
		}
		if types.ExprString(call.Args[0]) == types.ExprString(n.Lhs[i]) {
			s.selfAppend[call] = true
		}
	}
}

func (s *hotScanner) compositeLit(n *ast.CompositeLit) {
	if s.handledLit[n] {
		return
	}
	switch typeUnder(s.info.TypeOf(n)).(type) {
	case *types.Slice:
		s.report(n, "slice literal")
	case *types.Map:
		s.report(n, "map literal")
	}
}

func (s *hotScanner) call(n *ast.CallExpr) {
	// Conversion T(x): flag boxing into an interface type.
	if tv, ok := s.info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
		if types.IsInterface(tv.Type) && !boxFree(s.info.TypeOf(n.Args[0])) {
			s.report(n, "interface conversion (boxes the operand)")
		}
		return
	}
	switch {
	case s.isBuiltin(n, "make"):
		s.report(n, "make")
		return
	case s.isBuiltin(n, "new"):
		s.report(n, "new")
		return
	case s.isBuiltin(n, "append"):
		if !s.selfAppend[n] {
			s.report(n, "append without capacity evidence (x = append(x, ...) is accepted)")
		}
		return
	}
	if fn := s.callee(n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		s.report(n, "fmt."+fn.Name()+" call")
		return
	}
	s.boxingArgs(n)
}

// boxingArgs flags non-pointer-shaped concrete arguments passed to
// interface-typed parameters (each such pass heap-allocates the boxed
// copy).
func (s *hotScanner) boxingArgs(n *ast.CallExpr) {
	sig, ok := typeUnder(s.info.TypeOf(n.Fun)).(*types.Signature)
	if !ok || n.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range n.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := s.info.TypeOf(arg)
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		if !boxFree(at) {
			s.report(arg, "interface boxing of "+at.String()+" argument")
		}
	}
}

func (s *hotScanner) binary(n *ast.BinaryExpr) {
	if n.Op != token.ADD {
		return
	}
	if tv, ok := s.info.Types[n]; ok && tv.Value != nil {
		return // constant-folded at compile time
	}
	if b, ok := typeUnder(s.info.TypeOf(n)).(*types.Basic); ok && b.Info()&types.IsString != 0 {
		s.report(n, "string concatenation")
	}
}

func (s *hotScanner) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = s.info.Uses[id].(*types.Builtin)
	return ok
}

// callee resolves the called *types.Func of a direct or method call, nil
// for indirect calls through function values.
func (s *hotScanner) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := s.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := s.info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := s.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// typeUnder returns the underlying type, nil-safe.
func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// boxFree reports whether values of the type fit an interface word
// without a heap allocation: pointers and pointer-shaped types.
func boxFree(t types.Type) bool {
	switch u := typeUnder(t).(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}
