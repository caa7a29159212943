package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded module package: parsed syntax plus (for
// non-test files) tolerant type information.
type Package struct {
	Path      string      // import path, e.g. "repro/internal/mac"
	Files     []*ast.File // non-test files
	TestFiles []*ast.File // *_test.go files (in-package and external)
	Types     *types.Package
	Info      *types.Info
}

// AllFiles returns non-test then test files.
func (p *Package) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	out = append(out, p.TestFiles...)
	return out
}

// Module is a fully loaded Go module.
type Module struct {
	Root   string // absolute directory containing go.mod
	Path   string // module path from go.mod
	Fset   *token.FileSet
	Pkgs   []*Package // sorted by import path
	byPath map[string]*Package
}

// relPath renders an absolute file name relative to the module root
// with forward slashes, for stable diagnostics and golden files.
func (m *Module) relPath(file string) string {
	if rel, err := filepath.Rel(m.Root, file); err == nil {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// LoadModule parses and type-checks every package under root (the
// directory containing go.mod). Type checking is tolerant: standard
// library imports are stubbed with empty packages, so expressions
// involving them type as invalid without stopping the checker. Module
// internal imports are resolved from source, so cross-package types
// (sim.Rand, mac.Assignment, map fields, ...) are exact.
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   abs,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}
	if err := m.parseTree(); err != nil {
		return nil, err
	}
	m.sortPackages()
	im := &moduleImporter{
		mod:      m,
		stubs:    make(map[string]*types.Package),
		checking: make(map[*Package]bool),
	}
	// Type-check in dependency order so every module-internal import is
	// already a real (non-stub) *types.Package by the time its importers
	// are checked: cross-package selections, method sets and interface
	// satisfaction then resolve exactly, which rng-discipline (sim.Rand)
	// and map-order (map-typed fields) depend on. The importer still
	// resolves on demand as a fallback, so an accidental cycle degrades
	// to a stub instead of an error.
	for _, pkg := range m.dependencyOrder() {
		im.check(pkg)
	}
	return m, nil
}

// dependencyOrder topologically sorts the module packages so that every
// package appears after all module-internal packages it imports. Ties
// and (impossible in a buildable module) cycles fall back to import-path
// order, keeping the result deterministic.
func (m *Module) dependencyOrder() []*Package {
	deps := make(map[*Package][]*Package, len(m.Pkgs))
	for _, pkg := range m.Pkgs {
		seen := make(map[*Package]bool)
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if dep, ok := m.byPath[path]; ok && dep != pkg && !seen[dep] {
					seen[dep] = true
					deps[pkg] = append(deps[pkg], dep)
				}
			}
		}
		sort.Slice(deps[pkg], func(i, j int) bool { return deps[pkg][i].Path < deps[pkg][j].Path })
	}
	order := make([]*Package, 0, len(m.Pkgs))
	state := make(map[*Package]int, len(m.Pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(*Package)
	visit = func(pkg *Package) {
		if state[pkg] != 0 {
			return // done, or a cycle — either way stop descending
		}
		state[pkg] = 1
		for _, dep := range deps[pkg] {
			visit(dep)
		}
		state[pkg] = 2
		order = append(order, pkg)
	}
	for _, pkg := range m.Pkgs {
		visit(pkg)
	}
	return order
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (is the root a module directory?)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// parseTree walks the module directory and parses every package. The
// conventional ignored directories (testdata, vendor, hidden) are
// skipped, matching the go tool.
func (m *Module) parseTree() error {
	return filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != m.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		importPath := m.Path
		if rel, err := filepath.Rel(m.Root, dir); err == nil && rel != "." {
			importPath = m.Path + "/" + filepath.ToSlash(rel)
		}
		f, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parse %s: %w", path, err)
		}
		pkg := m.byPath[importPath]
		if pkg == nil {
			pkg = &Package{Path: importPath}
			m.byPath[importPath] = pkg
			m.Pkgs = append(m.Pkgs, pkg)
		}
		if strings.HasSuffix(path, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
		}
		return nil
	})
}

// moduleImporter resolves module-internal imports by type-checking them
// from source on demand and stubs everything else (the standard
// library) with empty placeholder packages.
type moduleImporter struct {
	mod      *Module
	stubs    map[string]*types.Package
	checking map[*Package]bool
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.mod.byPath[path]; ok {
		im.check(pkg)
		if pkg.Types == nil {
			// Import cycle or empty package; stub it so the checker
			// can continue (go build would have rejected a real cycle).
			return im.stub(path), nil
		}
		return pkg.Types, nil
	}
	return im.stub(path), nil
}

func (im *moduleImporter) stub(path string) *types.Package {
	if p, ok := im.stubs[path]; ok {
		return p
	}
	p := types.NewPackage(path, lastSegment(path))
	p.MarkComplete()
	im.stubs[path] = p
	return p
}

// check type-checks pkg's non-test files once, tolerating errors.
func (im *moduleImporter) check(pkg *Package) {
	if pkg.Types != nil || len(pkg.Files) == 0 || im.checking[pkg] {
		return
	}
	im.checking[pkg] = true
	defer delete(im.checking, pkg)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := &types.Config{
		Importer:         im,
		Error:            func(error) {}, // stub imports make errors routine
		FakeImportC:      true,
		IgnoreFuncBodies: false,
	}
	tpkg, _ := cfg.Check(pkg.Path, im.mod.Fset, pkg.Files, info)
	pkg.Types = tpkg
	pkg.Info = info
}

// sortPackages fixes the analysis order.
func (m *Module) sortPackages() {
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
}
