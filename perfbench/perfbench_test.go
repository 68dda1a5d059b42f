package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// exactCounts runs the parts of the traced run that produce the exact
// per-layer counts.
func exactCounts(t *testing.T) metrics {
	out := metrics{}
	layerSim(out)
	layerMachine(out)
	layerCache(out)
	in := replayPart.setup(1)
	replayPart.rep(in, nil)
	setMemoStats(out, in.memo)
	counts := metrics{}
	for name := range pinnedCounts {
		v, ok := out[name]
		if !ok {
			t.Fatalf("pinned count %s is not produced", name)
		}
		counts[name] = v
	}
	return counts
}

// TestExactCounts: the layer suite's counts repeat bit-for-bit across runs
// and equal the values pinned when the benchmark was introduced.
func TestExactCounts(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // where run.sh runs the benchmark
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir("perfbench"); err != nil {
			t.Error(err)
		}
	}()
	a, b := exactCounts(t), exactCounts(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counts differ between runs:\n%v\n%v", a, b)
	}
	for name, want := range pinnedCounts {
		if got := a[name].Value; got != want {
			t.Errorf("%s = %v, pinned %v", name, got, want)
		}
	}
}

// retiring lists the simulator surface the ROADMAP retires (goroutine
// processes, the blocking facade, the goroutine switch, the proc/ctx
// occupancy forms and the spawn wrappers). The benchmark must not use it,
// so the changes that delete it need not edit the benchmark.
var retiring = map[string]bool{
	"Thread": true, "Spawn": true, "SpawnAll": true, "BlockingCtx": true, "RunSteps": true,
	"NoSteps": true, "Steps": true, "Go": true, "GoAt": true,
	"SpawnChase": true, "SpawnStreamTask": true,
	"Occupy": true, "OccupyCtx": true,
	"ServeRead": true, "ServeReadCtx": true, "ServeWrite": true, "ServeWriteCtx": true,
}

// TestImportSurface type-checks the benchmark, collects every function,
// method and field of the simulator it uses, fails on any retiring one,
// and checks that README.md lists exactly the functions and methods.
func TestImportSurface(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var parsed []*ast.File
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, af)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("knlcap/perfbench", fset, parsed, info); err != nil {
		t.Fatal(err)
	}
	called := map[string]bool{}
	for id, obj := range info.Uses {
		pkg := obj.Pkg()
		if pkg == nil || !strings.HasPrefix(pkg.Path(), "knlcap/internal/") {
			continue
		}
		if retiring[obj.Name()] {
			t.Errorf("%s: uses %s.%s, which the ROADMAP retires", fset.Position(id.Pos()), pkg.Name(), obj.Name())
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		name := pkg.Name() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			name = pkg.Name() + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		called[name] = true
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^- `([a-z]+\\.[A-Za-z0-9.]+)`").FindAllStringSubmatch(string(readme), -1) {
		listed[m[1]] = true
	}
	if !reflect.DeepEqual(called, listed) {
		t.Errorf("README.md lists:\n%s\nthe benchmark calls:\n%s", keys(listed), keys(called))
	}
}

func keys(m map[string]bool) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, "\n")
}
