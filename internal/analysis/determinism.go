package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism forbids constructs whose behavior varies between identical
// runs in the simulator core. The discrete-event simulator substitutes for
// real KNL silicon; every number in the reproduced tables and figures is
// only trustworthy if two runs with the same seed produce bit-identical
// timelines (verified dynamically by Machine.StateDigest and its
// double-run test).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbids map iteration, wall-clock time, the global math/rand " +
		"source, raw goroutines, and channel selects in simulator packages",
	Applies: func(cfg *Config, pkg *Package) bool {
		return matchPkg(cfg.SimulatorPkgs, pkg.Path)
	},
	Run: runDeterminism,
}

// seededRandCtors are math/rand functions that construct explicitly seeded
// generators rather than drawing from the process-global source.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"range over map (%s): iteration order is randomized; iterate sorted keys or a slice",
						types.TypeString(t, types.RelativeTo(pass.Pkg.Types)))
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement: goroutine interleaving is scheduler-dependent; spawn simulated processes via machine.Machine.SpawnKernel or sim.Env.GoSteps")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select statement: the runtime picks ready cases at random; use deterministic event ordering")
			case *ast.SelectorExpr:
				reportNondetCall(pass, n)
			}
			return true
		})
	}
}

func reportNondetCall(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.ObjectOf(sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. on a *rand.Rand) carry their own seeded state
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(sel.Pos(),
				"time.%s: wall-clock time leaks host timing into the simulation; use sim.Env.Now", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandCtors[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"%s.%s uses the global, unseeded random source; use an explicitly seeded generator (stats.NewRNG)",
				fn.Pkg().Name(), fn.Name())
		}
	}
}
