package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Dir   string // directory as passed to the loader (used in positions)
	Name  string // package name from the package clause
	Fset  *token.FileSet
	Files []*ast.File // sorted by filename
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module from source.
// It resolves intra-module imports itself and stdlib imports through the
// toolchain's source importer, so it needs no compiled package artifacts
// and no dependencies outside the standard library.
type Loader struct {
	ModuleDir    string
	ModulePath   string
	IncludeTests bool
	// Overlay substitutes file contents by path (as constructed by the
	// loader: filepath.Join of the cleaned directory and base name). Tests
	// use it to type-check a deliberately mutated tree — the seeded
	// mutations of TestAnalyzersCatchSeededMutations — without touching
	// the working copy.
	Overlay map[string][]byte

	fset *token.FileSet
	pkgs map[string]*Package // memoized by directory (cleaned)
	std  types.Importer
}

// NewLoader builds a loader rooted at moduleDir, reading the module path
// from moduleDir/go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		fset:       fset,
		pkgs:       map[string]*Package{},
		std:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading module file: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Load expands the patterns (a directory relative to the module root, or
// "dir/..." for a recursive walk; "./..." covers the whole module) and
// returns the matched packages, parsed and type-checked.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			if root == "" {
				root = l.ModuleDir
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("analysis: expanding %q: %w", pat, err)
			}
		} else {
			add(filepath.Join(l.ModuleDir, filepath.FromSlash(pat)))
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathOf maps a directory under the module root to its import path.
func (l *Loader) importPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil {
		return "", fmt.Errorf("analysis: %s outside module %s: %w", dir, l.ModuleDir, err)
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("analysis: %s outside module %s", dir, l.ModuleDir)
	}
	return l.ModulePath + "/" + rel, nil
}

// loadDir parses and type-checks the package in dir (memoized). It returns
// nil for directories with no buildable non-test Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	// Reserve the slot to surface import cycles as errors, not recursion.
	l.pkgs[dir] = nil

	importPath, err := l.importPathOf(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if strings.HasSuffix(n, "_test.go") && !l.IncludeTests {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)

	var files []*ast.File
	var pkgName string
	for _, n := range names {
		path := filepath.Join(dir, n)
		var src any
		if b, ok := l.Overlay[path]; ok {
			src = b
		}
		f, err := parser.ParseFile(l.fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		name := f.Name.Name
		if strings.HasSuffix(n, "_test.go") {
			// External test packages (package foo_test) are out of scope:
			// they are consumers of the package, not part of it.
			if strings.HasSuffix(name, "_test") {
				continue
			}
		}
		if pkgName == "" {
			pkgName = name
		}
		if name != pkgName {
			return nil, fmt.Errorf("analysis: %s: package %s conflicts with %s in %s", path, name, pkgName, dir)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		delete(l.pkgs, dir)
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Name:  pkgName,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[dir] = pkg
	return pkg, nil
}

// loaderImporter resolves imports during type-checking: intra-module paths
// load recursively from source, everything else falls through to the
// stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
		if cached, ok := l.pkgs[filepath.Clean(dir)]; ok && cached == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
