package analysis

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

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/cl"), or the caller's
	// label for out-of-module directories (analyzer testdata).
	Path string
	Dir  string
	Fset *token.FileSet
	// Files is the syntax under analysis: the package's build-selected
	// GoFiles, plus in-package _test.go files when the loader's
	// IncludeTests is set.
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages of one module entirely from
// source: module-internal imports resolve against the module tree and
// everything else falls back to the standard library's source importer.
// No go command and no network are required, which keeps the linter
// usable in the same hermetic environments the simulation targets.
//
// A Loader caches type-checked imports, so loading many packages (or
// many analyzer testdata directories) shares one pass over the
// dependency graph. A Loader is not safe for concurrent use.
type Loader struct {
	// IncludeTests adds in-package _test.go files to loaded targets.
	// External test packages (package foo_test) are not loaded.
	IncludeTests bool

	Fset    *token.FileSet
	modDir  string
	modPath string
	cache   map[string]*types.Package
	std     types.ImporterFrom
}

// NewLoader finds the enclosing module of dir (by walking up to go.mod)
// and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modDir:  modDir,
		modPath: modPath,
		cache:   map[string]*types.Package{},
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}, nil
}

// findModule walks up from dir to the first go.mod and parses the
// module path from its module directive.
func findModule(dir string) (modDir, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if p, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(p), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves patterns — "./..." trees, "./pkg" directories or
// module-rooted import paths — and returns the matching packages,
// type-checked and sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		expanded, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range expanded {
			dirs[d] = true
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	var pkgs []*Package
	for _, dir := range sorted {
		pkg, err := l.LoadDir(dir, l.importPath(dir))
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// expand turns one pattern into candidate package directories.
func (l *Loader) expand(pat string) ([]string, error) {
	root := pat
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		root, recursive = rest, true
		if root == "." || root == "" {
			root = l.modDir
		}
	}
	if strings.HasPrefix(root, l.modPath) {
		// Import-path form: map onto the module tree.
		rel := strings.TrimPrefix(strings.TrimPrefix(root, l.modPath), "/")
		root = filepath.Join(l.modDir, filepath.FromSlash(rel))
	} else if !filepath.IsAbs(root) {
		abs, err := filepath.Abs(root)
		if err != nil {
			return nil, err
		}
		root = abs
	}
	if !recursive {
		return []string{root}, nil
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		// Standard go-tool pruning: testdata, hidden and underscore
		// directories never match "..." patterns.
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// importPath maps a module-internal directory to its import path; for
// directories outside the module it falls back to the directory name.
func (l *Loader) importPath(dir string) string {
	if rel, err := filepath.Rel(l.modDir, dir); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return filepath.Base(dir)
}

// LoadDir loads the single package in dir under the given import path.
// Unlike the import cache it honours IncludeTests, so analyzer targets
// may include their in-package tests without polluting what importers
// of the same package see.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string{}, bp.GoFiles...)
	if l.IncludeTests {
		names = append(names, bp.TestGoFiles...)
	}
	files, err := l.parseFiles(dir, names)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor(build.Default.Compiler, build.Default.GOARCH),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Dir:       dir,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name),
			nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// type-checked from the module tree (and cached); everything else goes
// to the stdlib source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if rel, ok := l.moduleRelative(path); ok {
		dir := filepath.Join(l.modDir, filepath.FromSlash(rel))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		files, err := l.parseFiles(dir, bp.GoFiles)
		if err != nil {
			return nil, err
		}
		conf := types.Config{
			Importer: l,
			Sizes:    types.SizesFor(build.Default.Compiler, build.Default.GOARCH),
		}
		pkg, err := conf.Check(path, l.Fset, files, nil)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// moduleRelative reports whether path names a package of the loaded
// module and returns its directory relative to the module root.
func (l *Loader) moduleRelative(path string) (string, bool) {
	if path == l.modPath {
		return ".", true
	}
	if rel, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return rel, true
	}
	return "", false
}
