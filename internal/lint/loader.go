package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked package of the module under analysis.
// Only non-test files are loaded: the analyzers check shipped code, and
// test files legitimately use math/rand, discard errors, and so on.
type Package struct {
	Path  string // import path, e.g. "example.com/mod/pkg"
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	ignores   []*ignore // its //lint:ignore directives
	malformed []Finding // its directive errors
}

// Module is a loaded Go module: every buildable package under the module
// root, type-checked against each other and the standard library.
type Module struct {
	Root     string // absolute module root (directory holding go.mod)
	Path     string // module path from the go.mod module directive
	Fset     *token.FileSet
	Packages map[string]*Package // keyed by import path

	dirs map[string]string // import path -> directory
	std  types.ImporterFrom
	pkgs map[string]*types.Package // type-checker cache (module + stdlib)

	marks       map[string]map[any]bool // directive name -> marked declarations
	cryptoReach map[string]bool         // lazy cache for the insecure-rand analyzer
}

// LoadModule discovers, parses and type-checks every package under root.
// Directories named "testdata", hidden directories, and nested modules
// (directories with their own go.mod) are skipped, matching the go tool.
// Type checking uses only the standard library: module-internal imports
// resolve against the walked directories and everything else goes through
// the stdlib source importer.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &Module{
		Root:     root,
		Path:     modPath,
		Fset:     fset,
		Packages: map[string]*Package{},
		dirs:     map[string]string{},
		pkgs:     map[string]*types.Package{},
		marks:    map[string]map[any]bool{},
	}
	m.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)

	// Pass 1: discover package directories so imports can resolve in any
	// order during type checking.
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		if hasGoFiles(path) {
			m.dirs[m.importPath(path)] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 2: type-check every discovered package.
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := m.load(p); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", p, err)
		}
	}
	return m, nil
}

// importPath maps a directory under the module root to its import path.
func (m *Module) importPath(dir string) string {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || rel == "." {
		return m.Path
	}
	return m.Path + "/" + filepath.ToSlash(rel)
}

// hasGoFiles reports whether dir holds at least one buildable non-test Go
// file.
func hasGoFiles(dir string) bool {
	bp, err := build.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}

// load parses and type-checks the module package at the given import path,
// memoizing the result.
func (m *Module) load(path string) (*Package, error) {
	if pkg, ok := m.Packages[path]; ok {
		return pkg, nil
	}
	dir, ok := m.dirs[path]
	if !ok {
		return nil, fmt.Errorf("no such package in module")
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(path, m.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, err
	}
	pkg.Types = tpkg
	m.scanComments(pkg)
	m.Packages[path] = pkg
	m.pkgs[path] = tpkg
	return pkg, nil
}

// Import implements types.Importer for the type checker: module-internal
// paths load from the walked directories, everything else falls back to the
// standard library source importer.
func (m *Module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (m *Module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		pkg, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	p, err := m.std.ImportFrom(path, dir, mode)
	if err == nil {
		m.pkgs[path] = p
	}
	return p, err
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}
