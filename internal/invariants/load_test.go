package invariants

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// A loader parses and type-checks the packages of one directory tree
// for one build configuration, as go test builds them. Packages in the
// tree are checked from source. Every other import is the standard
// library, read by importer.Default from the export data in the go
// build cache, so nothing is fetched.
type loader struct {
	fset   *token.FileSet
	ctxt   build.Context
	root   string                    // the tree's directory
	prefix string                    // the tree's import path ("idea"), or "" for a fixture tree
	dirs   map[string]*build.Package // by import path
	std    types.Importer
	parsed map[string]*ast.File // by file name; shared with retagged loaders
	bases  map[[2]string]*Pass  // non-test packages: {path, ""}
	tests  map[[2]string]*Pass  // the rest: {path, under}, see load
	errs   []string             // parse and type errors, in load order
}

// newLoader indexes every package directory under root, skipping
// testdata and directories whose names start with "." or "_", as the
// go command's ./... does.
func newLoader(root, prefix string, tags ...string) (*loader, error) {
	l := &loader{
		fset:   token.NewFileSet(),
		ctxt:   build.Default,
		root:   root,
		prefix: prefix,
		std:    importer.Default(),
		parsed: map[string]*ast.File{},
		bases:  map[[2]string]*Pass{},
		tests:  map[[2]string]*Pass{},
	}
	l.ctxt.BuildTags = tags
	return l, l.index()
}

func (l *loader) index() error {
	l.dirs = map[string]*build.Package{}
	return filepath.WalkDir(l.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != l.root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := l.ctxt.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(l.root, dir)
		path := l.prefix
		if rel != "." {
			path = strings.TrimPrefix(l.prefix+"/"+filepath.ToSlash(rel), "/")
		}
		l.dirs[path] = bp
		return nil
	})
}

// retag returns a loader over the same tree for other build tags. It
// shares the parsed files and, when the tags select the same non-test
// files in every package, the non-test packages too.
func (l *loader) retag(tags ...string) (*loader, error) {
	r := *l
	r.ctxt.BuildTags = tags
	r.tests = map[[2]string]*Pass{}
	r.errs = nil
	if err := r.index(); err != nil {
		return nil, err
	}
	for path, bp := range r.dirs {
		if old := l.dirs[path]; old == nil || !slices.Equal(old.GoFiles, bp.GoFiles) {
			r.bases = map[[2]string]*Pass{}
			break
		}
	}
	return &r, nil
}

// retagged reports whether the tags of r select other files for the
// package at path than l's do.
func (l *loader) retagged(r *loader, path string) bool {
	a, b := l.dirs[path], r.dirs[path]
	return a == nil || b == nil ||
		!slices.Equal(a.GoFiles, b.GoFiles) ||
		!slices.Equal(a.TestGoFiles, b.TestGoFiles) ||
		!slices.Equal(a.XTestGoFiles, b.XTestGoFiles)
}

// units loads what go test and go vet check for each package accepted
// by keep, in path order: the package with its in-package _test.go
// files, and its external _test package.
func (l *loader) units(keep func(path string) bool) []*Pass {
	var out []*Pass
	for _, path := range slices.Sorted(maps.Keys(l.dirs)) {
		if !keep(path) {
			continue
		}
		bp := l.dirs[path]
		if len(bp.GoFiles)+len(bp.TestGoFiles) > 0 {
			out = append(out, l.load(path, path))
		}
		if len(bp.XTestGoFiles) > 0 {
			out = append(out, l.load(path+"_test", path))
		}
	}
	return out
}

// load returns the package at path as the tests of package under see it
// (as non-test code sees it, when under is ""). Under's own variant
// holds its in-package _test.go files as well; path under+"_test" is
// its external test package; and a package that imports under is
// checked again against under's variant, as go test compiles it.
func (l *loader) load(path, under string) *Pass {
	if under != "" && path != under+"_test" &&
		(len(l.dirs[under].TestGoFiles) == 0 || path != under && !l.imports(path, under, map[string]bool{})) {
		under = ""
	}
	key, cache := [2]string{path, under}, l.tests
	if under == "" {
		cache = l.bases
	}
	if p, ok := cache[key]; ok {
		if p == nil {
			l.errs = append(l.errs, "import cycle through "+path)
			return &Pass{Fset: l.fset, Pkg: types.NewPackage(path, PathBase(path))}
		}
		return p
	}
	cache[key] = nil // checking

	bp := l.dirs[strings.TrimSuffix(path, "_test")]
	var names []string
	switch path {
	case under + "_test":
		names = bp.XTestGoFiles
	case under:
		names = append(slices.Clip(bp.GoFiles), bp.TestGoFiles...)
	default:
		names = bp.GoFiles
	}
	var files []*ast.File
	for _, name := range names {
		if f := l.parse(filepath.Join(bp.Dir, name)); f != nil {
			files = append(files, f)
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if l.dirs[imp] == nil {
				return l.std.Import(imp)
			}
			return l.load(imp, under).Pkg, nil
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) { l.errs = append(l.errs, err.Error()) },
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	p := &Pass{Fset: l.fset, Files: files, Pkg: pkg, TypesInfo: info}
	cache[key] = p
	return p
}

// imports reports whether the non-test files of the package at path
// import the package target, directly or through other packages of the
// tree.
func (l *loader) imports(path, target string, seen map[string]bool) bool {
	if seen[path] {
		return false
	}
	seen[path] = true
	for _, imp := range l.dirs[path].Imports {
		if imp == target || l.dirs[imp] != nil && l.imports(imp, target, seen) {
			return true
		}
	}
	return false
}

func (l *loader) parse(name string) *ast.File {
	if f, ok := l.parsed[name]; ok {
		return f
	}
	f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		l.errs = append(l.errs, err.Error())
		f = nil
	}
	l.parsed[name] = f
	return f
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// moduleRoot returns the directory holding go.mod, searching up from
// the working directory, and the module path it declares.
func moduleRoot() (dir, modPath string, err error) {
	dir, err = os.Getwd()
	for err == nil {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.Trim(strings.TrimSpace(rest), `"`), nil
				}
			}
			return "", "", fmt.Errorf("%s declares no module", filepath.Join(dir, "go.mod"))
		}
		if parent := filepath.Dir(dir); parent != dir {
			dir = parent
		} else {
			err = errors.New("no go.mod above the working directory")
		}
	}
	return "", "", err
}
