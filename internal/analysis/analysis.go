// Package analysis is a small stdlib-only static-analysis framework plus
// the repository's suite of repo-specific analyzers (run by cmd/knl-lint).
//
// The suite enforces the invariants the reproduction depends on:
//
//   - determinism: the discrete-event simulator must produce bit-identical
//     timelines for identical seeds, so simulator packages may not iterate
//     maps, read wall-clock time, use the global math/rand source, spawn
//     raw goroutines, or select over channels (see DESIGN.md §7).
//   - floatcmp: model and statistics packages may not compare floats with
//     == or != (the capability model is pure float64 arithmetic).
//   - errcheck: error return values in cmd/ and internal/ must be checked
//     or explicitly discarded with `_ =`.
//   - printban: library packages may not print to stdout; user output goes
//     through cmd/ or internal/report.
//   - linemap: the simulator hot-path packages may not declare maps keyed
//     by cache.Line — per-line protocol state belongs in the dense line
//     tables (DESIGN.md §4), which the PR introducing this analyzer showed
//     to be several times faster than hashing on every off-tile access.
//   - unitcheck: in the unit-bearing model packages, conversions may not
//     strip or rebrand the typed physical units of internal/units, bare
//     literals and same-unit operands may not be multiplied or divided
//     (Scale(k) and the named converters are the blessed paths), raw
//     .Float()/.Int() magnitudes of different units may not be mixed, and
//     (in UnitSigPkgs) exported signatures may not pass quantities as bare
//     float64 (see DESIGN.md §7).
//   - statecov: every field of the state-bearing simulator structs
//     (StateCovTypes) must be reachable from both the StateDigest fold and
//     the Reset path — otherwise determinism checks are blind to it or
//     pooled-machine reuse leaks it. Genuinely non-state fields carry a
//     justified `//knl:nostate <reason>` directive on their declaration.
//   - hotalloc: from functions annotated `//knl:hotpath`, the call graph
//     is walked and allocation-causing constructs (escaping composite
//     literals, append without capacity evidence, map creation/insertion,
//     closures, fmt calls, interface boxing, string concatenation) are
//     flagged, except in basic blocks that cannot reach the function's
//     exit (panic guards). This is the static twin of the -benchmem
//     allocs/op gate in ci.sh.
//   - memokey: at every memo entry point (memo.Lookup, exp.RunMemo),
//     every tracked struct field the memoized compute path transitively
//     reads must be folded into the key the call site passes —
//     otherwise a changed field silently serves a stale cached result.
//     Output-invariant fields carry a justified `//knl:nokey <reason>`
//     directive on their declaration.
//   - purity: functions on the call-graph closure of the convergence/memo
//     hook roots (the op-trace hooks and the memo encode path) may not
//     call into time, math/rand, or os, and may not write package-level
//     variables — cached and replayed passes stay bit-identical only if
//     the recorded op streams depend on nothing outside the simulation.
//
// statecov, hotalloc, memokey, and purity are whole-program analyzers:
// they run once over the full loaded package set, on top of the
// basic-block CFG (cfg.go), the class-hierarchy call graph (callgraph.go)
// and the def-use dataflow layer (dataflow.go) this package exposes as
// reusable infrastructure. The CFG models only the control flow the
// repository writes; a function that a flow analyzer reaches and that
// uses goto, a label, select or fallthrough is reported (analyzer "lint")
// rather than analyzed through a wrong graph.
//
// Each analyzer is proved on the real tree by a seeded mutation
// (TestAnalyzersCatchSeededMutations): a bug of its class, applied
// through Loader.Overlay, that it must report.
//
// Findings print as "file:line:col: analyzer: message"; knl-lint -json
// emits the same findings as a sorted JSON array (see JSONFinding). A
// finding can be suppressed with a justified directive on the same or the
// preceding line:
//
//	//lint:ignore <analyzer> <reason>
//
// or for a whole file (before the package clause):
//
//	//lint:file-ignore <analyzer> <reason>
//
// Directives without a reason, naming an unknown analyzer, or placing a
// file-ignore after the package clause are themselves reported (analyzer
// "lint").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// A Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the clickable file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// An Analyzer is one named check. Per-package analyzers set Run and are
// invoked once per loaded package; whole-program analyzers set RunProgram
// instead and are invoked once with the full package set and the shared
// call graph. Exactly one of Run and RunProgram must be non-nil.
type Analyzer struct {
	Name string
	Doc  string
	// Applies reports whether the analyzer runs over the package at all
	// (package-level scoping/allowlists). Nil means every package. Ignored
	// for whole-program analyzers, which scope themselves.
	Applies func(cfg *Config, pkg *Package) bool
	Run     func(pass *Pass)
	// RunProgram is the whole-program entry point (statecov, hotalloc).
	RunProgram func(pass *ProgramPass)
}

// Config scopes the analyzers to package sets and carries shared options.
// Package lists hold full import paths.
type Config struct {
	// SimulatorPkgs are the deterministic simulator core; the determinism
	// analyzer runs only there.
	SimulatorPkgs []string
	// ModelPkgs are the pure-math model/statistics packages; the floatcmp
	// analyzer runs only there.
	ModelPkgs []string
	// OutputPkgs are the designated output layer, exempt from printban.
	OutputPkgs []string
	// LineMapPkgs are the simulator hot-path packages where the linemap
	// analyzer forbids maps keyed by the line types in LineKeyTypes.
	LineMapPkgs []string
	// LineKeyTypes are the forbidden map-key types (as "pkgpath.Name").
	LineKeyTypes []string
	// UnitsPkg is the package defining the typed physical units; it is
	// exempt from unitcheck because its converters ARE the blessed
	// cross-unit operations.
	UnitsPkg string
	// UnitPkgs are the unit-bearing packages where unitcheck polices
	// conversions and arithmetic on unit-typed values.
	UnitPkgs []string
	// UnitSigPkgs additionally forbid bare float64 parameters/results in
	// exported signatures (quantities crossing those APIs must carry a
	// unit type).
	UnitSigPkgs []string
	// StateCovTypes are the state-bearing structs (as "pkgpath.Name") whose
	// every field statecov requires to be reachable from both the digest
	// fold and the reset path, unless annotated //knl:nostate <reason>.
	StateCovTypes []string
	// StateCovDigestRoots are the digest-fold entry points, in
	// types.Func.FullName form (e.g. "(*pkg.Machine).StateDigest"). A field
	// is digest-covered if any function reachable from a root reads it.
	StateCovDigestRoots []string
	// StateCovResetRoots are the reset-path entry points, same form.
	StateCovResetRoots []string
	// MemoKeyTypes are the structs (as "pkgpath.Name") whose fields the
	// memokey analyzer tracks: any field of one of these read on a
	// memoized compute path must be folded into the memo key, unless
	// annotated //knl:nokey <reason>.
	MemoKeyTypes []string
	// MemoEntries are the memo-cache entry points memokey checks call
	// sites of.
	MemoEntries []MemoEntry
	// MemoKeyType and MemoKeyWriterType name the key value and key builder
	// types (as "pkgpath.Name"); memokey traces local variables of these
	// types through reaching definitions to reconstruct the fold chain.
	MemoKeyType       string
	MemoKeyWriterType string
	// PurityRoots are the hook entry points (types.Func.FullName form)
	// whose call-graph closure the purity analyzer requires to be free of
	// time/rand/os calls and package-level writes.
	PurityRoots []string
}

// A MemoEntry describes one memo-cache entry point for the memokey
// analyzer.
type MemoEntry struct {
	// Func is the entry point's types.Func.FullName (the generic origin
	// for generic functions), e.g. "knlcap/internal/memo.Lookup".
	Func string
	// KeyArg is the 0-based index of the memo.Key argument.
	KeyArg int
	// ComputeArgs are the 0-based indices of the function-valued arguments
	// that produce the cached value. Empty means the compute path is the
	// function enclosing the call site (the Lookup/compute/Store pattern).
	ComputeArgs []int
}

// DefaultConfig returns the configuration for this repository.
func DefaultConfig() *Config {
	return &Config{
		SimulatorPkgs: []string{
			"knlcap/internal/sim",
			"knlcap/internal/machine",
			"knlcap/internal/mesh",
			"knlcap/internal/cache",
		},
		ModelPkgs: []string{
			"knlcap/internal/core",
			"knlcap/internal/stats",
			"knlcap/internal/roofline",
		},
		OutputPkgs: []string{
			"knlcap/internal/report",
		},
		LineMapPkgs: []string{
			"knlcap/internal/machine",
			"knlcap/internal/memmode",
		},
		LineKeyTypes: []string{
			"knlcap/internal/cache.Line",
		},
		UnitsPkg: "knlcap/internal/units",
		UnitPkgs: []string{
			"knlcap/internal/core",
			"knlcap/internal/knl",
			"knlcap/internal/stats",
			"knlcap/internal/roofline",
			"knlcap/internal/tune",
			"knlcap/internal/advisor",
			"knlcap/internal/msort",
			"knlcap/internal/coll",
		},
		UnitSigPkgs: []string{
			"knlcap/internal/core",
			"knlcap/internal/msort",
		},
		StateCovTypes: []string{
			"knlcap/internal/machine.Machine",
			"knlcap/internal/machine.lineTable",
			"knlcap/internal/sim.Env",
			"knlcap/internal/sim.eventQueue",
			"knlcap/internal/sim.Resource",
			"knlcap/internal/memory.Channel",
		},
		StateCovDigestRoots: []string{
			"(*knlcap/internal/machine.Machine).StateDigest",
		},
		StateCovResetRoots: []string{
			"(*knlcap/internal/machine.Machine).Reset",
		},
		MemoKeyTypes: []string{
			"knlcap/internal/knl.Config",
			"knlcap/internal/machine.Params",
			"knlcap/internal/core.Model",
			"knlcap/internal/bench.Options",
		},
		MemoEntries: []MemoEntry{
			{Func: "knlcap/internal/memo.Lookup", KeyArg: 1},
			{Func: "knlcap/internal/exp.RunMemo", KeyArg: 2, ComputeArgs: []int{4}},
		},
		MemoKeyType:       "knlcap/internal/memo.Key",
		MemoKeyWriterType: "knlcap/internal/memo.KeyWriter",
		PurityRoots: []string{
			"(*knlcap/internal/bench.opTrace).onOp",
			"knlcap/internal/memo.encodeValue",
		},
	}
}

func matchPkg(list []string, path string) bool {
	for _, p := range list {
		if p == path {
			return true
		}
	}
	return false
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Cfg      *Config
	Fset     *token.FileSet
	Pkg      *Package

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf returns the object denoted by identifier id, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// ProgramPass is a whole-program analyzer's view of the full loaded
// package set. The call graph is built once per Run and shared by every
// whole-program analyzer in the batch.
type ProgramPass struct {
	Analyzer *Analyzer
	Cfg      *Config
	Fset     *token.FileSet
	Pkgs     []*Package
	Graph    *CallGraph

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// flowGraph builds the control-flow graph of a function body for a flow
// analyzer. A construct the graph does not model (cfg.go) is reported as
// a "lint" finding at its position: the analyzer still scans the body,
// but through a conservative one-block graph, and a clean lint run must
// not rest on that. Every flow analyzer reports the same finding, so the
// copies collapse in Run's dedupe.
func (p *ProgramPass) flowGraph(body *ast.BlockStmt) *CFG {
	g := BuildCFG(body)
	if g.Unmodeled != nil {
		*p.findings = append(*p.findings, Finding{
			Pos:      p.Fset.Position(g.Unmodeled.Pos()),
			Analyzer: "lint",
			Message: unmodeledName(g.Unmodeled) +
				" is not modeled by the flow analyzers' control-flow graph; write this function with if/for/switch and unlabeled break/continue",
		})
	}
	return g
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, FloatCmp, ErrCheck, PrintBan, LineMap, UnitCheck, StateCov, HotAlloc, MemoKey, Purity}
}

// AnalyzerNames returns the sorted names of the full suite.
func AnalyzerNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// ByName resolves analyzer names; unknown names are an error naming the
// valid choices, so a typo on the knl-lint command line cannot silently
// run nothing.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q (valid: %s)",
				n, strings.Join(AnalyzerNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// A Timing records one analyzer's accumulated wall time over a run. The
// pseudo-entry "callgraph" covers the shared call-graph construction the
// whole-program analyzers amortize.
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// Run executes the analyzers over the packages, applies suppression
// directives, and returns the surviving findings sorted by position and
// deduplicated: two analyzer paths reporting the identical diagnostic at
// the identical position collapse to one finding, so -json output never
// carries duplicates.
func Run(cfg *Config, pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunTimed(cfg, pkgs, analyzers)
	return findings
}

// RunTimed is Run plus per-analyzer wall times, sorted by name, for the
// lint-stage cost trajectory (knl-lint -timing).
func RunTimed(cfg *Config, pkgs []*Package, analyzers []*Analyzer) ([]Finding, []Timing) {
	var raw []Finding
	elapsed := map[string]time.Duration{}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.Applies != nil && !a.Applies(cfg, pkg) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Cfg:      cfg,
				Fset:     pkg.Fset,
				Pkg:      pkg,
				findings: &raw,
			}
			start := time.Now()
			a.Run(pass)
			elapsed[a.Name] += time.Since(start)
		}
	}
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if graph == nil {
			start := time.Now()
			graph = BuildCallGraph(pkgs)
			elapsed["callgraph"] += time.Since(start)
		}
		pass := &ProgramPass{
			Analyzer: a,
			Cfg:      cfg,
			Fset:     fsetOf(pkgs),
			Pkgs:     pkgs,
			Graph:    graph,
			findings: &raw,
		}
		start := time.Now()
		a.RunProgram(pass)
		elapsed[a.Name] += time.Since(start)
	}
	var timings []Timing
	for name, d := range elapsed {
		timings = append(timings, Timing{Name: name, Elapsed: d})
	}
	sort.Slice(timings, func(i, j int) bool { return timings[i].Name < timings[j].Name })
	out := applySuppressions(pkgs, raw)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return dedupe(out), timings
}

// fsetOf returns the shared FileSet of the loaded packages (all packages
// of one Run come from one Loader).
func fsetOf(pkgs []*Package) *token.FileSet {
	for _, p := range pkgs {
		if p.Fset != nil {
			return p.Fset
		}
	}
	return token.NewFileSet()
}

// dedupe collapses adjacent identical findings in a sorted slice.
func dedupe(findings []Finding) []Finding {
	out := findings[:0]
	for i, f := range findings {
		if i > 0 && f == findings[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}
