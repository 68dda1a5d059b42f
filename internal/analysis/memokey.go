package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// MemoKey guards the key-completeness contract of the content-addressed
// result cache: at every call site of a memo entry point (memo.Lookup,
// exp.RunMemo), every tracked struct field the memoized compute path
// transitively reads must also be folded into the key the site passes. A
// fold that misses one output-affecting field makes the cache serve stale
// results — silently, which for a model validated by bit-reproducible
// agreement with measurement is the worst failure mode there is.
//
// Both sides of the comparison are value-flow analyses over the shared
// CFG + call graph (dataflow.go):
//
//   - The folded set: the key argument is traced backwards through
//     reaching definitions of Key/KeyWriter-typed locals to the fold
//     chain that built it (key := o.KeyFor(...).Int(n).Key(), including
//     chains grown across loops, kw = kw.Int(n)); every tracked field
//     read inside the chain — directly (Int(c.Beta)) or transitively
//     through a callee (cfg.FoldKey) — counts as folded.
//   - The compute set: the tracked fields transitively read by the
//     compute closures (the entry's ComputeArgs), or by the whole
//     enclosing function for the Lookup/compute/Store pattern.
//
// Fields that change how a result is computed but never the result
// itself (parallelism, convergence shortcuts, the cache handle) are
// exempted by //knl:nokey <reason> on their declaration; a bare
// //knl:nokey is reported and not honored, exactly the statecov grammar.
//
// Sites whose key cannot be traced to its folds (the key arrived as a
// parameter, as in exp.RunMemo's own internal Lookup call) are skipped:
// the contract is checked where the key is built. Like every analyzer in
// the suite the comparison is field-object-based and instance-blind: a
// read of Params.CHASvcNs on any instance pairs with a fold of
// Params.CHASvcNs from any instance.
var MemoKey = &Analyzer{
	Name: "memokey",
	Doc:  "every tracked field read by a memoized compute path must be folded into the memo key, or carry //knl:nokey <reason>",
	RunProgram: func(pass *ProgramPass) {
		runMemoKey(pass)
	},
}

func runMemoKey(pass *ProgramPass) {
	mk := newMemoKeyPass(pass)
	if len(mk.tracked) == 0 || len(mk.entries) == 0 {
		return
	}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				mk.checkDecl(pkg, fd)
			}
		}
	}
}

// memoKeyPass carries the per-run state of one memokey execution.
type memoKeyPass struct {
	pass    *ProgramPass
	ff      *FieldFlow
	entries map[string]MemoEntry // by types.Func.FullName
	tracked map[*types.Var]bool
	exempt  map[*types.Var]bool
	label   map[*types.Var]string // "Type.field" for messages
}

func newMemoKeyPass(pass *ProgramPass) *memoKeyPass {
	mk := &memoKeyPass{
		pass:    pass,
		entries: map[string]MemoEntry{},
		tracked: map[*types.Var]bool{},
		exempt:  map[*types.Var]bool{},
		label:   map[*types.Var]string{},
	}
	for _, e := range pass.Cfg.MemoEntries {
		mk.entries[e.Func] = e
	}
	trackedTypes := map[string]bool{}
	for _, t := range pass.Cfg.MemoKeyTypes {
		trackedTypes[t] = true
	}
	// Collect the tracked fields and their //knl:nokey directives, walking
	// type declarations in load order so bare-directive findings come out
	// deterministic.
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if !trackedTypes[pkg.Path+"."+ts.Name.Name] {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					mk.collectTracked(pkg, ts.Name, st)
				}
			}
		}
	}
	mk.ff = NewFieldFlow(pass.Graph, mk.tracked)
	return mk
}

// collectTracked registers the fields of one tracked struct, honoring
// justified //knl:nokey directives and reporting bare ones.
func (mk *memoKeyPass) collectTracked(pkg *Package, typeName *ast.Ident, st *ast.StructType) {
	obj := pkg.Info.Defs[typeName]
	if obj == nil {
		return
	}
	stype, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	idx := 0
	for _, f := range st.Fields.List {
		n := len(f.Names)
		if n == 0 {
			n = 1 // embedded field
		}
		dir, reason, hasDir := findDirective(nokeyDirective, f.Doc, f.Comment)
		for i := 0; i < n; i++ {
			if idx >= stype.NumFields() {
				return
			}
			v := stype.Field(idx)
			idx++
			mk.tracked[v] = true
			mk.label[v] = typeName.Name + "." + v.Name()
			if !hasDir {
				continue
			}
			if reason == "" {
				if i == 0 {
					mk.pass.Reportf(dir.Pos(), "knl:nokey on %s needs a reason", mk.label[v])
				}
				continue // not honored
			}
			mk.exempt[v] = true
		}
	}
}

// checkDecl scans one function body for memo entry call sites.
func (mk *memoKeyPass) checkDecl(pkg *Package, fd *ast.FuncDecl) {
	var rd *ReachingDefs // built lazily, only for bodies with sites
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(pkg.Info, call)
		if fn == nil {
			return true
		}
		entry, ok := mk.entries[fn.FullName()]
		if !ok || entry.KeyArg >= len(call.Args) {
			return true
		}
		if rd == nil {
			rd = NewReachingDefs(pkg.Info, fd.Body)
		}
		mk.checkSite(pkg, fd, rd, call, entry)
		return true
	})
}

// checkSite compares the folded set of one call site's key against the
// tracked reads of its compute path.
func (mk *memoKeyPass) checkSite(pkg *Package, fd *ast.FuncDecl, rd *ReachingDefs, call *ast.CallExpr, entry MemoEntry) {
	tr := &keyTracer{mk: mk, pkg: pkg, rd: rd, folded: map[*types.Var]bool{}, visited: map[ast.Node]bool{}}
	tr.trace(call.Args[entry.KeyArg])
	if !tr.complete {
		return // key built elsewhere (parameter, tuple): checked at its builder
	}

	compute := map[*types.Var]bool{}
	if len(entry.ComputeArgs) == 0 {
		// Lookup/compute/Store pattern: the enclosing function is the
		// compute path.
		if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			if n := mk.pass.Graph.Lookup(fn); n != nil {
				for v := range mk.ff.TransitiveReads(n) {
					compute[v] = true
				}
			}
		}
	} else {
		for _, i := range entry.ComputeArgs {
			if i < len(call.Args) {
				mk.computeReads(pkg, call.Args[i], compute)
			}
		}
	}

	var missing []*types.Var
	for v := range compute {
		if !tr.folded[v] && !mk.exempt[v] {
			missing = append(missing, v)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return mk.label[missing[i]] < mk.label[missing[j]] })
	for _, v := range missing {
		mk.pass.Reportf(call.Pos(),
			"memo key at this %s call does not fold %s, which the compute path reads; fold it or annotate the field //knl:nokey <reason>",
			shortEntryName(mk.entryFullName(call, pkg)), mk.label[v])
	}
}

// entryFullName re-resolves the callee name for the message (the callee
// is known to resolve — checkDecl only forwards resolved sites).
func (mk *memoKeyPass) entryFullName(call *ast.CallExpr, pkg *Package) string {
	if fn := staticCallee(pkg.Info, call); fn != nil {
		return fn.FullName()
	}
	return "memo"
}

// shortEntryName trims "knlcap/internal/memo.Lookup" to "memo.Lookup".
func shortEntryName(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		return full[i+1:]
	}
	return full
}

// computeReads collects the tracked fields read by one compute argument:
// a function literal (its body's direct reads plus the transitive reads
// of everything it calls) or a named function value.
func (mk *memoKeyPass) computeReads(pkg *Package, arg ast.Expr, out map[*types.Var]bool) {
	arg = ast.Unparen(arg)
	if lit, ok := arg.(*ast.FuncLit); ok {
		collectTrackedReads(pkg.Info, lit.Body, mk.tracked, out)
		mk.calleeReads(pkg, lit.Body, out)
		return
	}
	// Named function value: its transitive reads.
	if id, ok := arg.(*ast.Ident); ok {
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			if n := mk.pass.Graph.Lookup(fn); n != nil {
				for v := range mk.ff.TransitiveReads(n) {
					out[v] = true
				}
			}
			return
		}
	}
	if sel, ok := arg.(*ast.SelectorExpr); ok {
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
			if n := mk.pass.Graph.Lookup(fn); n != nil {
				for v := range mk.ff.TransitiveReads(n) {
					out[v] = true
				}
			}
			return
		}
	}
	// Anything else (a function-typed variable): conservatively scan the
	// expression itself for direct reads.
	collectTrackedReads(pkg.Info, arg, mk.tracked, out)
}

// calleeReads unions the transitive reads of every statically resolvable
// callee inside the node.
func (mk *memoKeyPass) calleeReads(pkg *Package, node ast.Node, out map[*types.Var]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(pkg.Info, call); fn != nil {
			if cn := mk.pass.Graph.Lookup(fn); cn != nil {
				for v := range mk.ff.TransitiveReads(cn) {
					out[v] = true
				}
			}
		}
		return true
	})
}

// keyTracer reconstructs the fold set of one key expression by walking
// the expression and the reaching definitions of every Key- or
// KeyWriter-typed local it mentions.
type keyTracer struct {
	mk       *memoKeyPass
	pkg      *Package
	rd       *ReachingDefs
	folded   map[*types.Var]bool
	visited  map[ast.Node]bool
	complete bool
}

func (tr *keyTracer) trace(key ast.Expr) {
	tr.complete = true
	tr.walk(key)
}

// walk scans one expression of the fold chain: tracked field reads and
// resolvable callees fold; Key/KeyWriter-typed idents recurse into their
// reaching definitions.
func (tr *keyTracer) walk(e ast.Expr) {
	e = ast.Unparen(e)
	if tr.visited[e] {
		return
	}
	tr.visited[e] = true
	collectTrackedReads(tr.pkg.Info, e, tr.mk.tracked, tr.folded)
	tr.mk.calleeReads(tr.pkg, e, tr.folded)
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := tr.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || !tr.keyish(v.Type()) {
			return true
		}
		defs, complete := tr.rd.DefsAt(v, id.Pos())
		if !complete {
			tr.complete = false
		}
		for _, d := range defs {
			tr.walk(d)
		}
		return true
	})
}

// keyish reports whether t is the configured Key or KeyWriter type
// (through pointers).
func (tr *keyTracer) keyish(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return name == tr.mk.pass.Cfg.MemoKeyType || name == tr.mk.pass.Cfg.MemoKeyWriterType
}
