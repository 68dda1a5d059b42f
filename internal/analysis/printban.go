package analysis

import (
	"go/ast"
	"go/types"
)

// PrintBan flags stray stdout printing in library packages. All user
// output flows through the cmd/ binaries or the designated output layer
// (Config.OutputPkgs, internal/report here); a fmt.Println left in a
// library package is almost always forgotten debugging output that would
// corrupt the CSV/table streams the cmd tools emit.
var PrintBan = &Analyzer{
	Name: "printban",
	Doc:  "forbids fmt.Print*/print/println in library packages",
	Applies: func(cfg *Config, pkg *Package) bool {
		// main packages (cmd/) and the output layer may print.
		return pkg.Name != "main" && !matchPkg(cfg.OutputPkgs, pkg.Path)
	},
	Run: runPrintBan,
}

func runPrintBan(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				if b, ok := pass.ObjectOf(fun).(*types.Builtin); ok &&
					(b.Name() == "print" || b.Name() == "println") {
					pass.Reportf(call.Pos(),
						"builtin %s in library package: route output through cmd/ or internal/report", b.Name())
				}
			case *ast.SelectorExpr:
				if fn, ok := pass.ObjectOf(fun.Sel).(*types.Func); ok &&
					fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					switch fn.Name() {
					case "Print", "Printf", "Println":
						pass.Reportf(call.Pos(),
							"fmt.%s in library package: route output through cmd/ or internal/report", fn.Name())
					}
				}
			}
			return true
		})
	}
}
