package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnitCheck is the dimensional-analysis pass over the typed physical units
// of internal/units (DESIGN.md §7). Go's type system already rejects mixing
// two distinct named unit types directly; this analyzer closes the three
// holes the language leaves open in unit-bearing packages:
//
//   - untyped conversions: float64(x) or units.GBps(x) on a unit-typed x
//     silently strips or rebrands the dimension. The blessed escapes are
//     the greppable raw views (.Float()/.Int()) and the named converters
//     in internal/units.
//   - bare-literal arithmetic: nanos * 2 type-checks because untyped
//     constants convert implicitly; the blessed scaling path is Scale(k).
//     Multiplying or dividing two values of the SAME unit also
//     type-checks, but ns*ns is not a time — take raw views if a
//     dimensionless ratio is intended.
//   - laundering through raw views: x := a.Float(); y := b.Float(); x + y
//     adds a Nanos magnitude to a GBps magnitude through plain float64
//     locals. A small intraprocedural propagation pass follows raw views
//     through local assignments and flags mixed-provenance sums.
//
// In UnitSigPkgs, exported function signatures additionally may not use
// bare float64 parameters or results: a quantity crossing a package API
// must carry its dimension (suppress with a justified //lint:ignore for
// genuinely dimensionless ratios).
var UnitCheck = &Analyzer{
	Name: "unitcheck",
	Doc:  "dimensional analysis for the typed units of internal/units",
	Applies: func(cfg *Config, pkg *Package) bool {
		if pkg.Path == cfg.UnitsPkg {
			return false // the converter definitions are the blessed mixes
		}
		return matchPkg(cfg.UnitPkgs, pkg.Path) || matchPkg(cfg.UnitSigPkgs, pkg.Path)
	},
	Run: runUnitCheck,
}

// unitNameOf returns the unit's name ("Nanos", "GBps", ...) when t is a
// named type declared in the units package, else "".
func unitNameOf(t types.Type, unitsPkg string) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != unitsPkg {
		return ""
	}
	return obj.Name()
}

func runUnitCheck(pass *Pass) {
	u := &unitChecker{pass: pass, unitsPkg: pass.Cfg.UnitsPkg}
	sigs := matchPkg(pass.Cfg.UnitSigPkgs, pass.Pkg.Path)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				u.checkConversion(n)
			case *ast.BinaryExpr:
				u.checkBinary(n)
			case *ast.AssignStmt:
				u.checkOpAssign(n)
			case *ast.FuncDecl:
				if sigs && n.Name.IsExported() {
					u.checkSignature(n)
				}
				if n.Body != nil {
					u.checkLaundering(n.Body)
				}
			}
			return true
		})
	}
}

type unitChecker struct {
	pass     *Pass
	unitsPkg string
}

func (u *unitChecker) unitOf(e ast.Expr) string {
	return unitNameOf(u.pass.TypeOf(e), u.unitsPkg)
}

// isBareLiteral reports whether e is a bare numeric literal (possibly
// parenthesised or negated). An untyped literal next to a unit-typed
// operand converts implicitly and so acquires the unit's type — the
// syntax, not the type, is what identifies it as dimensionless in source.
func isBareLiteral(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return isBareLiteral(e.X)
	case *ast.UnaryExpr:
		return isBareLiteral(e.X)
	case *ast.BasicLit:
		return true
	}
	return false
}

// checkConversion flags type conversions that strip or rebrand a unit.
func (u *unitChecker) checkConversion(ce *ast.CallExpr) {
	tv, ok := u.pass.Pkg.Info.Types[ce.Fun]
	if !ok || !tv.IsType() || len(ce.Args) != 1 {
		return
	}
	src := u.unitOf(ce.Args[0])
	if src == "" {
		return // plain -> unit is always allowed (the calibration boundary)
	}
	dst := unitNameOf(tv.Type, u.unitsPkg)
	switch {
	case dst == src:
		// Re-affirming conversion; harmless.
	case dst != "":
		u.pass.Reportf(ce.Pos(),
			"cross-unit conversion %s -> %s bypasses the blessed converters; use the named %s conversion in internal/units",
			src, dst, dst)
	default:
		u.pass.Reportf(ce.Pos(),
			"conversion strips the %s dimension; use the greppable raw view (.Float()/.Int()) or a blessed converter",
			src)
	}
}

// checkBinary flags same-unit multiplication/division and bare-literal
// arithmetic on unit-typed operands.
func (u *unitChecker) checkBinary(be *ast.BinaryExpr) {
	switch be.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return
	}
	ux, uy := u.unitOf(be.X), u.unitOf(be.Y)
	if ux == "" && uy == "" {
		return
	}
	if ux != "" && isBareLiteral(be.Y) {
		u.pass.Reportf(be.Pos(),
			"bare constant %s a %s value; use .Scale(k) or a typed constant with the right unit", be.Op, ux)
		return
	}
	if uy != "" && isBareLiteral(be.X) {
		u.pass.Reportf(be.Pos(),
			"bare constant %s a %s value; use .Scale(k) or a typed constant with the right unit", be.Op, uy)
		return
	}
	if ux != "" && ux == uy && (be.Op == token.MUL || be.Op == token.QUO) {
		u.pass.Reportf(be.Pos(),
			"%s %s %s is not a %s; take .Float() views if a dimensionless ratio or square is intended",
			ux, be.Op, uy, ux)
	}
}

// checkOpAssign extends the binary rules to the compound assignment forms
// (x *= x-like expressions cannot occur, but nanos *= 2 and nanos /= other
// can).
func (u *unitChecker) checkOpAssign(as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	ul := u.unitOf(as.Lhs[0])
	if ul == "" {
		return
	}
	if isBareLiteral(as.Rhs[0]) && (as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN) {
		u.pass.Reportf(as.Pos(),
			"bare constant %s a %s value; use .Scale(k) or a typed constant with the right unit", as.Tok, ul)
		return
	}
	if (as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN) && u.unitOf(as.Rhs[0]) == ul {
		u.pass.Reportf(as.Pos(),
			"%s %s %s is not a %s; take .Float() views if a dimensionless ratio is intended",
			ul, as.Tok, ul, ul)
	}
}

// checkSignature enforces unit-typed exported APIs in UnitSigPkgs: a bare
// float64 parameter or result hides the dimension of the quantity crossing
// the package boundary.
func (u *unitChecker) checkSignature(fd *ast.FuncDecl) {
	check := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := u.pass.TypeOf(field.Type)
			b, ok := t.(*types.Basic)
			if !ok || b.Kind() != types.Float64 {
				continue
			}
			u.pass.Reportf(field.Type.Pos(),
				"exported %s has a raw float64 %s; quantities crossing the API must carry a unit type from internal/units",
				fd.Name.Name, kind)
		}
	}
	check(fd.Type.Params, "parameter")
	check(fd.Type.Results, "result")
}

// rawUnitOf returns the provenance unit of an expression for the
// laundering pass: the static unit type if it has one, the receiver's unit
// for a raw view call x.Float()/x.Int(), a recorded taint for a local, or
// the common unit of a +/- expression.
func (u *unitChecker) rawUnitOf(e ast.Expr, taint map[types.Object]string) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return u.rawUnitOf(e.X, taint)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Float" || sel.Sel.Name == "Int") {
			if recv := u.unitOf(sel.X); recv != "" {
				return recv
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := u.pass.ObjectOf(id); obj != nil {
					return taint[obj]
				}
			}
		}
		return ""
	case *ast.Ident:
		if obj := u.pass.ObjectOf(e); obj != nil {
			if t := taint[obj]; t != "" {
				return t
			}
		}
		return u.unitOf(e)
	case *ast.BinaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			x, y := u.rawUnitOf(e.X, taint), u.rawUnitOf(e.Y, taint)
			if x == y {
				return x
			}
		}
		return ""
	default:
		return u.unitOf(e)
	}
}

// checkLaundering runs the intraprocedural propagation pass over one
// function body: raw views escape a unit's magnitude into plain float64
// locals, so locals inherit the unit of their right-hand side and sums of
// locals with different provenance are flagged.
func (u *unitChecker) checkLaundering(body *ast.BlockStmt) {
	taint := map[types.Object]string{}
	// Pass 1 populates taints (a second sweep lets later assignments feed
	// earlier uses in loops); pass 2 reports, so nothing is reported twice.
	for pass := 0; pass < 2; pass++ {
		report := pass == 1
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				idn, ok := lhs.(*ast.Ident)
				if !ok || idn.Name == "_" {
					continue
				}
				obj := u.pass.ObjectOf(idn)
				if obj == nil || u.unitOf(lhs) != "" {
					continue // statically unit-typed locals need no taint
				}
				unit := u.rawUnitOf(as.Rhs[i], taint)
				if unit == "" {
					continue
				}
				if prev, ok := taint[obj]; ok && prev != unit {
					if report {
						u.pass.Reportf(as.Pos(),
							"local %q carries raw %s and raw %s values on different paths; keep one unit per local",
							idn.Name, prev, unit)
					}
					continue
				}
				taint[obj] = unit
			}
			return true
		})
	}
	// Mixed-provenance sums: both operands are plain float64 (a direct
	// unit-typed mix is a compile error) but trace to different units.
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
			return true
		}
		if u.unitOf(be.X) != "" || u.unitOf(be.Y) != "" {
			return true // statically typed: handled by checkBinary / the compiler
		}
		x, y := u.rawUnitOf(be.X, taint), u.rawUnitOf(be.Y, taint)
		if x != "" && y != "" && x != y {
			u.pass.Reportf(be.Pos(),
				"%s of a raw %s value and a raw %s value: the units were stripped by .Float() but still do not mix",
				be.Op, x, y)
		}
		return true
	})
}
