package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the value-flow layer under memokey and purity: a classic
// reaching-definitions pass per function body (over BuildCFG's basic
// blocks) plus an interprocedural "which tracked struct fields does this
// function transitively read" fixpoint over the call graph. Both are
// deliberately conservative in the same direction as the rest of the
// suite: reads are collected type-level (the *types.Var of the field,
// regardless of which instance it was read from), writes in plain
// assignment position do not count as reads, and code in doomed
// (panic-only) blocks is exempt.

// defSite is one definition of a local variable: an assignment,
// declaration, or other binding. RHS is the defining expression when the
// definition carries one (x := e, x = e), nil when it does not (tuple
// assignment from a call, ++/--, compound assignment, range binding).
// pos is the END of the defining statement: the right-hand side is
// evaluated before the variable is bound, so uses inside the statement
// (kw = kw.Int(n)) are reached by the previous definition, not this one.
type defSite struct {
	v   *types.Var
	rhs ast.Expr
	pos token.Pos
}

// ReachingDefs answers "which definitions of variable v can reach this
// use site" for one function body, computed with the textbook gen/kill
// fixpoint over the function's CFG. FuncLit bodies are opaque: their
// definitions belong to the closure's own CFG, not the enclosing one.
type ReachingDefs struct {
	info    *types.Info
	cfg     *CFG
	defs    []defSite
	byBlock [][]int // def indices per block, in source order
	in      []map[int]bool
}

// NewReachingDefs builds the reaching-definitions solution over a
// function body's control-flow graph.
func NewReachingDefs(info *types.Info, cfg *CFG) *ReachingDefs {
	r := &ReachingDefs{info: info, cfg: cfg}
	r.byBlock = make([][]int, len(r.cfg.Blocks))
	for _, b := range r.cfg.Blocks {
		for _, n := range b.Nodes {
			r.collectDefs(b.Index, n)
		}
	}
	r.solve()
	return r
}

// collectDefs records the definitions inside one CFG node, skipping
// nested FuncLit bodies.
func (r *ReachingDefs) collectDefs(block int, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			r.assignDefs(block, n)
		case *ast.IncDecStmt:
			if v := r.localVar(n.X); v != nil {
				r.addDef(block, defSite{v: v, pos: n.End()})
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				v, ok := r.info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				d := defSite{v: v, pos: n.End()}
				if len(n.Values) == len(n.Names) {
					d.rhs = n.Values[i]
				}
				r.addDef(block, d)
			}
		}
		return true
	})
}

func (r *ReachingDefs) assignDefs(block int, n *ast.AssignStmt) {
	traceable := n.Tok == token.ASSIGN || n.Tok == token.DEFINE
	for i, lhs := range n.Lhs {
		v := r.localVar(lhs)
		if v == nil {
			continue
		}
		d := defSite{v: v, pos: n.End()}
		if traceable && len(n.Lhs) == len(n.Rhs) {
			d.rhs = n.Rhs[i]
		}
		r.addDef(block, d)
	}
}

// localVar resolves an assignment target to the local variable it
// (re)binds: a plain identifier, defined or used. Selector and index
// targets define no variable.
func (r *ReachingDefs) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := r.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := r.info.Uses[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}

func (r *ReachingDefs) addDef(block int, d defSite) {
	r.defs = append(r.defs, d)
	r.byBlock[block] = append(r.byBlock[block], len(r.defs)-1)
}

// solve runs the forward may-analysis fixpoint: in[B] is the union of
// out[P] over predecessors; out[B] keeps the last definition of each
// variable defined in B and passes through the rest.
func (r *ReachingDefs) solve() {
	n := len(r.cfg.Blocks)
	gen := make([]map[*types.Var]int, n) // var -> last def index in block
	out := make([]map[int]bool, n)
	r.in = make([]map[int]bool, n)
	preds := make([][]int, n)
	for _, b := range r.cfg.Blocks {
		g := map[*types.Var]int{}
		for _, di := range r.byBlock[b.Index] {
			g[r.defs[di].v] = di
		}
		gen[b.Index] = g
		out[b.Index] = map[int]bool{}
		r.in[b.Index] = map[int]bool{}
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b.Index)
		}
	}
	changed := true
	for changed {
		changed = false
		for _, b := range r.cfg.Blocks {
			i := b.Index
			for _, p := range preds[i] {
				for d := range out[p] {
					if !r.in[i][d] {
						r.in[i][d] = true
						changed = true
					}
				}
			}
			for d := range r.in[i] {
				if last, killed := gen[i][r.defs[d].v]; killed && last != d {
					continue
				}
				if !out[i][d] {
					out[i][d] = true
					changed = true
				}
			}
			for _, d := range gen[i] {
				if !out[i][d] {
					out[i][d] = true
					changed = true
				}
			}
		}
	}
}

// DefsAt returns the defining expressions of v that can reach the use at
// position at, and whether the set is complete. Incomplete means some
// reaching definition carries no traceable expression (a parameter, a
// range binding, a tuple assignment): callers that need the full value
// history must treat the variable as unknown.
func (r *ReachingDefs) DefsAt(v *types.Var, at token.Pos) (rhs []ast.Expr, complete bool) {
	b := r.blockAt(at)
	if b < 0 {
		return nil, false
	}
	// A definition earlier in the same block wins over anything inbound.
	local := r.byBlock[b]
	for i := len(local) - 1; i >= 0; i-- {
		d := r.defs[local[i]]
		if d.v == v && d.pos < at {
			if d.rhs == nil {
				return nil, false
			}
			return []ast.Expr{d.rhs}, true
		}
	}
	complete = true
	seen := map[ast.Expr]bool{}
	any := false
	for di := range r.in[b] {
		d := r.defs[di]
		if d.v != v {
			continue
		}
		any = true
		if d.rhs == nil {
			complete = false
			continue
		}
		if !seen[d.rhs] {
			seen[d.rhs] = true
			rhs = append(rhs, d.rhs)
		}
	}
	if !any {
		return nil, false // a parameter or closed-over variable: no defs seen
	}
	return rhs, complete
}

// blockAt finds the CFG block whose nodes span the position.
func (r *ReachingDefs) blockAt(at token.Pos) int {
	for _, b := range r.cfg.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() <= at && at <= n.End() {
				return b.Index
			}
		}
	}
	return -1
}

// staticCallee resolves the *types.Func a call expression invokes: plain
// calls, method calls, and explicitly instantiated generic calls
// (f[T](...)). Indirect calls through function values resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// FieldFlow computes which tracked struct fields a function reads,
// directly and transitively through the call graph. Field identity is
// the *types.Var of the field declaration, so reads are matched across
// instances: any read of Config.YieldSeed pairs with any fold of
// Config.YieldSeed. Struct copies (p := o) carry no field reads of their
// own; the reads surface where individual fields are later selected.
type FieldFlow struct {
	pass    *ProgramPass
	tracked map[*types.Var]bool
	direct  map[*CallNode]map[*types.Var]bool
	trans   map[*CallNode]map[*types.Var]bool
}

// NewFieldFlow prepares a field-read oracle for the tracked field set over
// the pass's call graph.
func NewFieldFlow(pass *ProgramPass, tracked map[*types.Var]bool) *FieldFlow {
	return &FieldFlow{
		pass:    pass,
		tracked: tracked,
		direct:  map[*CallNode]map[*types.Var]bool{},
		trans:   map[*CallNode]map[*types.Var]bool{},
	}
}

// DirectReads returns the tracked fields read in the node's own body,
// outside doomed blocks. Write positions (plain-assignment left-hand
// sides) and composite-literal field keys do not count; compound
// assignment and ++/-- read the old value and do. FuncLit bodies inside
// the function count as its own reads: a closure observes the fields it
// captures when the enclosing path runs it.
func (ff *FieldFlow) DirectReads(n *CallNode) map[*types.Var]bool {
	if got, ok := ff.direct[n]; ok {
		return got
	}
	out := map[*types.Var]bool{}
	ff.direct[n] = out
	if n.Decl == nil || n.Decl.Body == nil {
		return out
	}
	cfg := ff.pass.flowGraph(n.Decl.Body)
	for _, blk := range cfg.Blocks {
		if !cfg.ReachesExit(blk) {
			continue
		}
		for _, node := range blk.Nodes {
			collectTrackedReads(n.Pkg.Info, node, ff.tracked, out)
		}
	}
	return out
}

// TransitiveReads returns the union of DirectReads over every node the
// call graph reaches from n (including n itself), memoized.
func (ff *FieldFlow) TransitiveReads(n *CallNode) map[*types.Var]bool {
	if got, ok := ff.trans[n]; ok {
		return got
	}
	out := map[*types.Var]bool{}
	ff.trans[n] = out
	for m := range ff.pass.Graph.Reachable([]*CallNode{n}) {
		for v := range ff.DirectReads(m) {
			out[v] = true
		}
	}
	return out
}

// collectTrackedReads adds to out every tracked field read inside the
// node. Skipped as non-reads: identifiers naming the field in a
// composite-literal key ({Parallel: true} constructs, it does not read)
// and selector targets of plain assignment (o.pool = p overwrites, it
// does not read).
func collectTrackedReads(info *types.Info, root ast.Node, tracked, out map[*types.Var]bool) {
	skip := map[*ast.Ident]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				break // compound assignment reads the old value
			}
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					skip[sel.Sel] = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						skip[id] = true
					}
				}
			}
		case *ast.Ident:
			if skip[n] {
				break
			}
			if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() && tracked[v] {
				out[v] = true
			}
		}
		return true
	})
}
