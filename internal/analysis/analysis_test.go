package analysis

import (
	"strings"
	"sync"
	"testing"
)

// runFindings is RunTimed without the timings.
func runFindings(cfg *Config, pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunTimed(cfg, pkgs, analyzers)
	return findings
}

// fixtureCfg scopes the analyzers to the testdata module's packages.
func fixtureCfg() *Config {
	return &Config{
		SimulatorPkgs: []string{"fix.example/simpkg"},
		ModelPkgs:     []string{"fix.example/modelpkg", "fix.example/edgeig"},
		OutputPkgs:    []string{"fix.example/outpkg"},
		LineMapPkgs:   []string{"fix.example/linemappkg"},
		LineKeyTypes:  []string{"fix.example/fakecache.Line"},
		UnitsPkg:      "fix.example/units",
		UnitPkgs:      []string{"fix.example/unitpkg"},
		UnitSigPkgs:   []string{"fix.example/unitpkg"},
		StateCovTypes: []string{
			"fix.example/statecov.Machine",
			"fix.example/statecov.Queue",
		},
		StateCovDigestRoots: []string{"(*fix.example/statecov.Machine).StateDigest"},
		StateCovResetRoots:  []string{"(*fix.example/statecov.Machine).Reset"},
		MemoKeyTypes:        []string{"fix.example/memokeypkg.Conf"},
		MemoEntries: []MemoEntry{
			{Func: "fix.example/fakememo.Lookup", KeyArg: 1},
			{Func: "fix.example/fakexp.RunMemo", KeyArg: 1, ComputeArgs: []int{3}},
		},
		MemoKeyType:       "fix.example/fakememo.Key",
		MemoKeyWriterType: "fix.example/fakememo.KeyWriter",
		PurityRoots: []string{
			"(*fix.example/puritypkg.Trace).OnWaitGood",
			"(*fix.example/puritypkg.Trace).OnWaitBad",
			"(*fix.example/puritypkg.Trace).OnMarkGuarded",
			"fix.example/unmodeled.Root",
		},
	}
}

var (
	fixturesOnce sync.Once
	fixturesPkgs map[string]*Package
	fixturesErr  error
)

// loadFixtures loads the whole testdata module once and indexes packages
// by import path.
func loadFixtures(t *testing.T) map[string]*Package {
	t.Helper()
	fixturesOnce.Do(func() {
		loader, err := NewLoader("testdata/src")
		if err != nil {
			fixturesErr = err
			return
		}
		pkgs, err := loader.Load("./...")
		if err != nil {
			fixturesErr = err
			return
		}
		fixturesPkgs = map[string]*Package{}
		for _, p := range pkgs {
			fixturesPkgs[p.Path] = p
		}
	})
	if fixturesErr != nil {
		t.Fatalf("loading fixtures: %v", fixturesErr)
	}
	return fixturesPkgs
}

// runOn runs the named analyzers over one fixture package and returns the
// findings as strings.
func runOn(t *testing.T, pkgPath string, names ...string) []string {
	t.Helper()
	pkgs := loadFixtures(t)
	pkg, ok := pkgs[pkgPath]
	if !ok {
		t.Fatalf("fixture package %s not loaded (have %v)", pkgPath, pkgPaths(pkgs))
	}
	analyzers, err := ByName(names)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range runFindings(fixtureCfg(), []*Package{pkg}, analyzers) {
		out = append(out, f.String())
	}
	return out
}

func pkgPaths(pkgs map[string]*Package) []string {
	var out []string
	for p := range pkgs {
		out = append(out, p)
	}
	return out
}

func diff(t *testing.T, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "", ""
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("finding %d:\n  got:  %s\n  want: %s", i, g, w)
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/simpkg", "determinism"), []string{
		"testdata/src/simpkg/simpkg.go:14:2: determinism: range over map (map[int]int): iteration order is randomized; iterate sorted keys or a slice",
		"testdata/src/simpkg/simpkg.go:33:7: determinism: time.Now: wall-clock time leaks host timing into the simulation; use sim.Env.Now",
		"testdata/src/simpkg/simpkg.go:34:12: determinism: time.Since: wall-clock time leaks host timing into the simulation; use sim.Env.Now",
		"testdata/src/simpkg/simpkg.go:39:9: determinism: rand.Intn uses the global, unseeded random source; use an explicitly seeded generator (stats.NewRNG)",
		"testdata/src/simpkg/simpkg.go:50:2: determinism: go statement: goroutine interleaving is scheduler-dependent; spawn simulated processes via machine.Machine.SpawnKernel or sim.Env.GoSteps",
		"testdata/src/simpkg/simpkg.go:52:2: determinism: select statement: the runtime picks ready cases at random; use deterministic event ordering",
	})
}

func TestDeterminismPackageAllowlist(t *testing.T) {
	diff(t, runOn(t, "fix.example/simfree", "determinism"), nil)
}

func TestFloatCmpGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/modelpkg", "floatcmp"), []string{
		"testdata/src/modelpkg/modelpkg.go:6:9: floatcmp: floating-point == comparison: compare with a tolerance (math.Abs(a-b) <= eps)",
		"testdata/src/modelpkg/modelpkg.go:11:9: floatcmp: floating-point != comparison: compare with a tolerance (math.Abs(a-b) <= eps)",
		"testdata/src/modelpkg/modelpkg.go:32:9: floatcmp: floating-point == comparison: compare with a tolerance (math.Abs(a-b) <= eps)",
	})
}

func TestErrCheckGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/errpkg", "errcheck"), []string{
		"testdata/src/errpkg/errpkg.go:15:2: errcheck: error returned by fix.example/errpkg.fallible is silently discarded: check it or assign it to _",
		"testdata/src/errpkg/errpkg.go:16:2: errcheck: error returned by os.Remove is silently discarded: check it or assign it to _",
		"testdata/src/errpkg/errpkg.go:22:8: errcheck: error returned by (*os.File).Close is silently discarded: check it or assign it to _",
		"testdata/src/errpkg/errpkg.go:34:2: errcheck: error returned by fmt.Fprintf is silently discarded: check it or assign it to _",
	})
}

func TestPrintBanGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/printpkg", "printban"), []string{
		"testdata/src/printpkg/printpkg.go:9:2: printban: fmt.Println in library package: route output through cmd/ or internal/report",
		"testdata/src/printpkg/printpkg.go:10:2: printban: builtin println in library package: route output through cmd/ or internal/report",
	})
}

func TestPrintBanOutputLayerExempt(t *testing.T) {
	diff(t, runOn(t, "fix.example/outpkg", "printban"), nil)
}

func TestFileIgnoreDirective(t *testing.T) {
	diff(t, runOn(t, "fix.example/fileig", "printban"), nil)
}

func TestMalformedDirectiveReported(t *testing.T) {
	diff(t, runOn(t, "fix.example/badlint", "errcheck"), []string{
		"testdata/src/badlint/badlint.go:10:2: lint: suppression directive needs an analyzer name and a reason",
		"testdata/src/badlint/badlint.go:11:2: errcheck: error returned by os.Remove is silently discarded: check it or assign it to _",
	})
}

func TestUnitCheckGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/unitpkg", "unitcheck"), []string{
		"testdata/src/unitpkg/unitpkg.go:10:9: unitcheck: conversion strips the Nanos dimension; use the greppable raw view (.Float()/.Int()) or a blessed converter",
		"testdata/src/unitpkg/unitpkg.go:15:9: unitcheck: cross-unit conversion Nanos -> Cycles bypasses the blessed converters; use the named Cycles conversion in internal/units",
		"testdata/src/unitpkg/unitpkg.go:20:9: unitcheck: bare constant * a Nanos value; use .Scale(k) or a typed constant with the right unit",
		"testdata/src/unitpkg/unitpkg.go:25:9: unitcheck: Nanos * Nanos is not a Nanos; take .Float() views if a dimensionless ratio or square is intended",
		"testdata/src/unitpkg/unitpkg.go:30:2: unitcheck: bare constant /= a Nanos value; use .Scale(k) or a typed constant with the right unit",
		"testdata/src/unitpkg/unitpkg.go:39:9: unitcheck: + of a raw Nanos value and a raw GBps value: the units were stripped by .Float() but still do not mix",
		`testdata/src/unitpkg/unitpkg.go:46:3: unitcheck: local "v" carries raw Nanos and raw GBps values on different paths; keep one unit per local`,
		"testdata/src/unitpkg/unitpkg.go:53:17: unitcheck: exported Exported has a raw float64 parameter; quantities crossing the API must carry a unit type from internal/units",
		"testdata/src/unitpkg/unitpkg.go:53:26: unitcheck: exported Exported has a raw float64 result; quantities crossing the API must carry a unit type from internal/units",
	})
}

func TestLineMapGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/linemappkg", "linemap"), []string{
		"testdata/src/linemappkg/linemappkg.go:10:9: linemap: map keyed by fakecache.Line in a hot-path package: per-line state belongs in the dense line tables (DESIGN.md §4)",
		"testdata/src/linemappkg/linemappkg.go:13:19: linemap: map keyed by fakecache.Line in a hot-path package: per-line state belongs in the dense line tables (DESIGN.md §4)",
		"testdata/src/linemappkg/linemappkg.go:14:9: linemap: map keyed by fakecache.Line in a hot-path package: per-line state belongs in the dense line tables (DESIGN.md §4)",
	})
}

// TestLineMapScopedToHotPathPkgs: a Line-keyed map outside LineMapPkgs is
// cold-path tooling and stays legal.
func TestLineMapScopedToHotPathPkgs(t *testing.T) {
	diff(t, runOn(t, "fix.example/linemapfree", "linemap"), nil)
}

// TestUnitCheckUnitsPkgExempt: the units package itself defines the
// blessed converters, so unitcheck must not fire on its conversions.
func TestUnitCheckUnitsPkgExempt(t *testing.T) {
	diff(t, runOn(t, "fix.example/units", "unitcheck"), nil)
}

// TestSuppressionEdgeCases covers the three directive edge cases at once:
// a line carrying both a floatcmp and a printban finding where the
// directive names only floatcmp (printban survives), a directive naming
// an unknown analyzer (reported, not honored — the errcheck finding below
// it survives), and a file-ignore placed after the package clause
// (reported, not honored).
func TestSuppressionEdgeCases(t *testing.T) {
	diff(t, runOn(t, "fix.example/edgeig", "floatcmp", "printban", "errcheck"), []string{
		"testdata/src/edgeig/edgeig.go:16:2: printban: fmt.Println in library package: route output through cmd/ or internal/report",
		`testdata/src/edgeig/edgeig.go:22:2: lint: suppression directive names unknown analyzer "floatcomp"`,
		"testdata/src/edgeig/edgeig.go:23:2: errcheck: error returned by os.Remove is silently discarded: check it or assign it to _",
		"testdata/src/edgeig/late.go:5:1: lint: file-ignore directive after the package clause has no effect; move it above the package clause",
		"testdata/src/edgeig/late.go:12:2: errcheck: error returned by os.Remove is silently discarded: check it or assign it to _",
	})
}

func TestByNameUnknown(t *testing.T) {
	_, err := ByName([]string{"determinism", "nope"})
	if err == nil {
		t.Fatal("ByName accepted unknown analyzer name")
	}
	// The error must name the valid analyzers so a knl-lint typo is
	// self-correcting rather than a silent no-op.
	for _, name := range AnalyzerNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ByName error does not list valid analyzer %q: %v", name, err)
		}
	}
}

// TestStateCovGolden: the miniature machine misses deliberately chosen
// fields on each side of the digest/reset contract. Deleting a field from
// the fold (miss, driver, pad, Queue.events) or a Reset assignment (temp,
// driver, pad) is exactly what these findings prove statecov catches.
func TestStateCovGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/statecov", "statecov"), []string{
		"testdata/src/statecov/statecov.go:11:2: statecov: field Machine.miss is not touched by the reset path from (*fix.example/statecov.Machine).Reset; reset it or annotate //knl:nostate <reason>",
		"testdata/src/statecov/statecov.go:12:2: statecov: field Machine.temp is not folded by the digest path from (*fix.example/statecov.Machine).StateDigest; add it to the fold or annotate //knl:nostate <reason>",
		"testdata/src/statecov/statecov.go:14:2: statecov: field Machine.driver is not folded by the digest path from (*fix.example/statecov.Machine).StateDigest; add it to the fold or annotate //knl:nostate <reason>",
		"testdata/src/statecov/statecov.go:14:2: statecov: field Machine.driver is not touched by the reset path from (*fix.example/statecov.Machine).Reset; reset it or annotate //knl:nostate <reason>",
		"testdata/src/statecov/statecov.go:17:2: statecov: field Machine.pad is not folded by the digest path from (*fix.example/statecov.Machine).StateDigest; add it to the fold or annotate //knl:nostate <reason>",
		"testdata/src/statecov/statecov.go:17:2: statecov: field Machine.pad is not touched by the reset path from (*fix.example/statecov.Machine).Reset; reset it or annotate //knl:nostate <reason>",
		"testdata/src/statecov/statecov.go:17:17: statecov: knl:nostate on Machine.pad needs a reason",
		"testdata/src/statecov/statecov.go:24:2: statecov: field Queue.events is not folded by the digest path from (*fix.example/statecov.Machine).StateDigest; add it to the fold or annotate //knl:nostate <reason>",
	})
}

// TestHotAllocGolden: every allocating construct in the //knl:hotpath
// closure fires (a map insert under the root being the acceptance case),
// the panic guard's fmt.Sprintf stays exempt via the doomed-block CFG
// analysis, the justified //lint:ignore suppresses its make, and Cold()
// stays free to allocate.
func TestHotAllocGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/hotpkg", "hotalloc"), []string{
		"testdata/src/hotpkg/hotpkg.go:26:9: hotalloc: make on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:28:2: hotalloc: map insert on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:57:7: hotalloc: escaping composite literal (&T{...}) on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:58:24: hotalloc: fmt.Sprintf call on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:59:9: hotalloc: slice literal on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:60:11: hotalloc: append without capacity evidence (x = append(x, ...) is accepted) on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:61:7: hotalloc: closure creation on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:62:2: hotalloc: map insert on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:63:13: hotalloc: string concatenation on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:64:6: hotalloc: interface boxing of int argument on hot path from (*fix.example/hotpkg.Engine).Step",
		"testdata/src/hotpkg/hotpkg.go:65:6: hotalloc: interface conversion (boxes the operand) on hot path from (*fix.example/hotpkg.Engine).Step",
	})
}

// TestMemoKeyGolden: the tracked Conf's fields are variously folded
// (Complete, Rebuilt — the latter across a loop rebinding, proving the
// reaching-definitions merge), missing from the key while read by the
// compute (MissingFold's closure, LookupStore's enclosing function),
// exempted with a justified //knl:nokey (Workers), and opted out with a
// bare directive that is reported and not honored (Stale).
func TestMemoKeyGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/memokeypkg", "memokey"), []string{
		"testdata/src/memokeypkg/memokeypkg.go:22:2: memokey: knl:nokey on Conf.Stale needs a reason",
		"testdata/src/memokeypkg/memokeypkg.go:45:9: memokey: memo key at this fakexp.RunMemo call does not fold Conf.Beta, which the compute path reads; fold it or annotate the field //knl:nokey <reason>",
		"testdata/src/memokeypkg/memokeypkg.go:69:14: memokey: memo key at this fakememo.Lookup call does not fold Conf.Stale, which the compute path reads; fold it or annotate the field //knl:nokey <reason>",
	})
}

// TestMemoKeySkipsUntraceableKeys: fakexp.RunMemo's own internal Lookup
// call receives the key as a parameter; the analyzer must stay silent
// there (the contract is checked where the key is built).
func TestMemoKeySkipsUntraceableKeys(t *testing.T) {
	diff(t, runOn(t, "fix.example/fakexp", "memokey"), nil)
}

// TestPurityGolden: hooks that are pure (OnWaitGood), impure directly
// and transitively (OnWaitBad through stamp), and impure only inside a
// doomed panic guard (OnMarkGuarded, exempt). Cold is off the hook paths
// entirely.
func TestPurityGolden(t *testing.T) {
	diff(t, runOn(t, "fix.example/puritypkg", "purity"), []string{
		"testdata/src/puritypkg/puritypkg.go:27:2: purity: write to package-level calls on the hook path from (*fix.example/puritypkg.Trace).OnWaitBad; hooks must stay a pure function of the simulation",
		"testdata/src/puritypkg/puritypkg.go:28:5: purity: call to os.Getenv on the hook path from (*fix.example/puritypkg.Trace).OnWaitBad; hooks must stay a pure function of the simulation",
		"testdata/src/puritypkg/puritypkg.go:37:17: purity: call to time.Now on the hook path from (*fix.example/puritypkg.Trace).OnWaitBad; hooks must stay a pure function of the simulation",
		"testdata/src/puritypkg/puritypkg.go:37:42: purity: call to rand.Float64 on the hook path from (*fix.example/puritypkg.Trace).OnWaitBad; hooks must stay a pure function of the simulation",
	})
}

// TestSuiteOverFixtures runs the full suite over every fixture package at
// once: the per-analyzer golden findings above, plus the cross-analyzer
// ones (errpkg prints from a library package; printpkg's calls are also
// spotted there), must all surface in one sorted stream.
func TestSuiteOverFixtures(t *testing.T) {
	pkgsByPath := loadFixtures(t)
	var pkgs []*Package
	for _, path := range []string{
		"fix.example/badlint", "fix.example/edgeig",
		"fix.example/errpkg", "fix.example/fakecache", "fix.example/fakememo",
		"fix.example/fakexp", "fix.example/fileig",
		"fix.example/hotpkg", "fix.example/linemapfree", "fix.example/linemappkg",
		"fix.example/memokeypkg", "fix.example/modelpkg", "fix.example/outpkg",
		"fix.example/printpkg", "fix.example/puritypkg", "fix.example/simfree",
		"fix.example/simpkg", "fix.example/statecov", "fix.example/unitpkg",
		"fix.example/units",
	} {
		pkg, ok := pkgsByPath[path]
		if !ok {
			t.Fatalf("fixture package %s not loaded", path)
		}
		pkgs = append(pkgs, pkg)
	}
	findings := runFindings(fixtureCfg(), pkgs, All())
	perAnalyzer := map[string]int{}
	for _, f := range findings {
		perAnalyzer[f.Analyzer]++
	}
	want := map[string]int{
		"determinism": 6,
		"floatcmp":    3, // modelpkg's three; edgeig's one is suppressed
		"errcheck":    7, // errpkg's four + badlint's one + edgeig's two
		"printban":    4, // printpkg's two + errpkg's fmt.Println + edgeig's
		"lint":        3, // badlint's + edgeig's unknown name + late file-ignore
		"linemap":     3, // linemappkg's var, result type, composite literal
		"unitcheck":   9,
		"statecov":    8,  // the statecov fixture's coverage gaps
		"hotalloc":    11, // the hotpkg fixture's closure, minus the suppressed make
		"memokey":     3,  // memokeypkg's two missing folds + the bare nokey
		"purity":      4,  // puritypkg's package write + three banned calls
	}
	for a, n := range want {
		if perAnalyzer[a] != n {
			t.Errorf("suite: %s findings = %d, want %d", a, perAnalyzer[a], n)
		}
	}
	for a, n := range perAnalyzer {
		if _, ok := want[a]; !ok {
			t.Errorf("suite: unexpected analyzer %s with %d findings", a, n)
		}
	}
}
