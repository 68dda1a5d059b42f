package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds a whole-program call graph over the loaded packages,
// the second half of the flow-aware layer (the CFG in cfg.go is the
// first). Like the loader it is stdlib-only: edges come straight from the
// type-checker's Uses/Selections maps, and dynamic dispatch through
// interfaces is resolved with class-hierarchy analysis (CHA) — an
// interface method call conservatively fans out to that method on every
// loaded named type implementing the interface. That over-approximates
// the possible callees, which is the right direction for the analyzers
// built on top: hotalloc must not miss an allocation behind an interface,
// and statecov must not miss a field touched by a dynamic call.
//
// Function literals are attributed to their enclosing declared function:
// a closure created inside LoadLine is, for flow purposes, part of
// LoadLine. Calls to functions outside the loaded package set (stdlib,
// unmatched packages) become declaration-less leaf nodes, identifiable by
// a nil Decl.

// A CallNode is one function in the call graph.
type CallNode struct {
	Func *types.Func
	// Decl is the function's declaration, nil for functions outside the
	// loaded packages (stdlib and friends) and for interface methods.
	Decl *ast.FuncDecl
	// Pkg is the loaded package containing Decl, nil when Decl is nil.
	Pkg *Package
	// Callees are the possible direct callees, deduplicated and sorted by
	// FullName for deterministic traversal.
	Callees []*CallNode
}

// A CallGraph maps every function of the loaded packages (plus external
// leaves they call) to its possible callees.
type CallGraph struct {
	nodes map[*types.Func]*CallNode
	// byName resolves the types.Func.FullName form used in Config root
	// lists, e.g. "(*knlcap/internal/machine.Machine).StateDigest".
	byName map[string]*CallNode
}

// Lookup returns the node for fn, or nil.
func (g *CallGraph) Lookup(fn *types.Func) *CallNode {
	return g.nodes[fn]
}

// LookupName resolves a function by its types.Func.FullName, e.g.
// "(*knlcap/internal/machine.Machine).Reset" or
// "knlcap/internal/sim.NewEnv". It returns nil if no declared function of
// the loaded packages has that name.
func (g *CallGraph) LookupName(full string) *CallNode {
	return g.byName[full]
}

// Reachable returns every node reachable from the roots (inclusive),
// together with a witness root for each: the first root, in the given
// order, from which the node was discovered. Traversal is breadth-first
// over sorted callee lists, so the result is deterministic.
func (g *CallGraph) Reachable(roots []*CallNode) map[*CallNode]*CallNode {
	witness := make(map[*CallNode]*CallNode)
	var queue []*CallNode
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := witness[r]; !ok {
			witness[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if _, ok := witness[c]; !ok {
				witness[c] = witness[n]
				queue = append(queue, c)
			}
		}
	}
	return witness
}

// BuildCallGraph constructs the call graph of the given packages. All
// packages must come from one shared Loader (one FileSet, one
// type-checker memo), so that a types.Object seen from two packages is
// the same pointer.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	b := &graphBuilder{
		g:         &CallGraph{nodes: map[*types.Func]*CallNode{}, byName: map[string]*CallNode{}},
		edges:     map[*CallNode]map[*CallNode]bool{},
		implCache: map[*types.Interface][]*types.Named{},
	}
	// Pass 1: nodes for every declared function, and the named-type
	// universe for CHA.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := b.node(obj)
				n.Decl = fd
				n.Pkg = pkg
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					b.named = append(b.named, named)
				}
			}
		}
	}
	sort.Slice(b.named, func(i, j int) bool {
		return b.named[i].Obj().Pkg().Path()+"."+b.named[i].Obj().Name() <
			b.named[j].Obj().Pkg().Path()+"."+b.named[j].Obj().Name()
	})
	// Pass 2: edges from every call expression in every declared body.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				caller := b.g.nodes[obj]
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					b.callEdge(pkg, caller, call)
					return true
				})
			}
		}
	}
	// Finalize: deduplicated, sorted callee slices.
	for n, set := range b.edges {
		for c := range set {
			n.Callees = append(n.Callees, c)
		}
		sort.Slice(n.Callees, func(i, j int) bool {
			return n.Callees[i].Func.FullName() < n.Callees[j].Func.FullName()
		})
	}
	return b.g
}

type graphBuilder struct {
	g         *CallGraph
	edges     map[*CallNode]map[*CallNode]bool
	named     []*types.Named
	implCache map[*types.Interface][]*types.Named
}

func (b *graphBuilder) node(fn *types.Func) *CallNode {
	if n, ok := b.g.nodes[fn]; ok {
		return n
	}
	n := &CallNode{Func: fn}
	b.g.nodes[fn] = n
	b.g.byName[fn.FullName()] = n
	return n
}

func (b *graphBuilder) addEdge(from, to *CallNode) {
	if from == nil || to == nil {
		return
	}
	set := b.edges[from]
	if set == nil {
		set = map[*CallNode]bool{}
		b.edges[from] = set
	}
	set[to] = true
}

// callEdge records the edges for one call expression in caller's body.
func (b *graphBuilder) callEdge(pkg *Package, caller *CallNode, call *ast.CallExpr) {
	fn := ast.Unparen(call.Fun)
	// Explicit generic instantiation (memo.Lookup[T](...)) wraps the
	// callee in an index expression; the edge targets the generic origin.
	switch ix := fn.(type) {
	case *ast.IndexExpr:
		fn = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fn = ast.Unparen(ix.X)
	}
	switch fun := fn.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			b.addEdge(caller, b.node(fn))
		}
	case *ast.SelectorExpr:
		// pkg.F, v.Method, or a selection of a func-valued field.
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if isInterfaceRecv(fn) {
					b.chaEdges(caller, fn)
				} else {
					b.addEdge(caller, b.node(fn))
				}
			}
			return
		}
		// Qualified identifier (pkg.F): no Selection entry, but Uses has it.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			b.addEdge(caller, b.node(fn))
		}
	}
}

// isInterfaceRecv reports whether fn is a method declared on an interface
// type.
func isInterfaceRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// chaEdges resolves an interface method call by class-hierarchy analysis:
// an edge to the interface method itself (an external-style leaf — the
// witness for "this call is dynamic") plus edges to that method on every
// loaded named type that implements the interface.
func (b *graphBuilder) chaEdges(caller *CallNode, ifaceMethod *types.Func) {
	b.addEdge(caller, b.node(ifaceMethod))
	sig := ifaceMethod.Type().(*types.Signature)
	iface := sig.Recv().Type().Underlying().(*types.Interface)
	for _, named := range b.implementers(iface) {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, ifaceMethod.Pkg(), ifaceMethod.Name())
		if m, ok := obj.(*types.Func); ok {
			b.addEdge(caller, b.node(m))
		}
	}
}

// implementers returns the loaded named types whose value or pointer type
// satisfies iface, memoized per interface.
func (b *graphBuilder) implementers(iface *types.Interface) []*types.Named {
	if impls, ok := b.implCache[iface]; ok {
		return impls
	}
	var impls []*types.Named
	for _, named := range b.named {
		if types.IsInterface(named) {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			impls = append(impls, named)
		}
	}
	b.implCache[iface] = impls
	return impls
}
