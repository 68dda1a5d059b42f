package analysis

import (
	"go/ast"
	"go/types"
)

// EnvShare forbids sharing simulator state across goroutines: a *sim.Env or
// *machine.Machine captured by a go statement, or sent over a channel,
// outside the package that legitimately owns concurrency (the internal/exp
// worker pool). The parallel experiment runner is deterministic only
// because every point builds its own environment; this analyzer keeps an
// Env from quietly leaking into a raw goroutine where host scheduling
// would decide the event order.
var EnvShare = &Analyzer{
	Name: "envshare",
	Doc: "forbids *sim.Env / *machine.Machine captured by go statements or " +
		"sent over channels outside internal/exp",
	Applies: func(cfg *Config, pkg *Package) bool {
		return !matchPkg(cfg.EnvShareExempt, pkg.Path)
	},
	Run: runEnvShare,
}

// envShareType resolves an expression's type to one of the configured
// shared-state types, stripping pointers; it returns the matched
// "pkgpath.Name" entry, or "".
func envShareType(cfg *Config, t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	for _, want := range cfg.EnvShareTypes {
		if want == full {
			return full
		}
	}
	return ""
}

func runEnvShare(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				reportGoCaptures(pass, n)
			case *ast.SendStmt:
				t := pass.TypeOf(n.Value)
				if t == nil {
					return true
				}
				if name := envShareType(pass.Cfg, t); name != "" {
					pass.Reportf(n.Arrow,
						"%s sent over a channel: simulator state must stay owned by one goroutine; fan points out via internal/exp",
						name)
				}
			}
			return true
		})
	}
}

// reportGoCaptures flags every distinct variable of a shared-state type
// that a go statement pulls in from the enclosing scope — whether captured
// by a function literal or passed as a call argument.
func reportGoCaptures(pass *Pass, g *ast.GoStmt) {
	seen := map[*types.Var]bool{}
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the go statement itself (e.g. built fresh in the
		// goroutine body): that is ownership, not sharing.
		if v.Pos() >= g.Pos() && v.Pos() < g.End() {
			return true
		}
		name := envShareType(pass.Cfg, v.Type())
		if name == "" || seen[v] {
			return true
		}
		seen[v] = true
		pass.Reportf(id.Pos(),
			"go statement shares %s %q across goroutines: each worker must build its own machine; fan points out via internal/exp",
			name, id.Name)
		return true
	})
}
