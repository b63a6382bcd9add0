package idea

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knobExceptions are the settable fields no code outside a _test.go file
// sets, kept on purpose. Every other exported field of a configuration
// struct must have a caller; a value nobody picks is a constant.
//
// Kept too, but with callers outside tests so the guard passes them:
// health.Config.History and FsyncSpikeMs and tracing.Config.BufferPerStripe
// (plans need values other than the default); core.Options.DisableRansub,
// All and DisableRollback (the benchmark sets them, until it builds its
// clusters through internal/cluster and runs with rollback on).
var knobExceptions = map[string]string{
	"detect.Config.Timeout":     "TestRunLiveChurnScenario needs 250 ms under its 1 s OpTimeout; raising the test's timeouts would loosen it",
	"core.Options.Detect":       "carries detect.Config.Timeout",
	"ransub.Config.Epoch":       "six tests' election schedules are written against 5 s epochs",
	"core.Options.Ransub":       "carries ransub.Config.Epoch",
	"resolve.Config.Priorities": "the only thing that gives SetResolution(PriorityBased) (Table 1) a meaning",
	"health.Config.Disable":     "the home of the health-overhead bench (shards=4/health=off)",
	"transport.Opts.ShardQueue": "the executor backpressure test needs it, and the benchmark calls ListenOpts(…, Opts{})",
}

// TestEveryKnobHasACaller: every exported field of a struct named Config,
// Options, Opts or *Config under internal/ is set somewhere outside a
// _test.go file — by a composite-literal key or an assignment — or is
// listed in knobExceptions. An assignment inside an if that tests the same
// field (`if c.F == 0 { c.F = … }`, a withDefaults branch) fills in a
// default and is not a caller.
//
// The module's own non-test packages are type-checked from source so a
// key or selector resolves to the field it names, not just its name;
// every other import is an empty stand-in, which leaves that resolution
// intact.
func TestEveryKnobHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "vendor" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		dirs[dir] = append(dirs[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	imp := &moduleImporter{fset: fset, dirs: dirs, info: info, pkgs: map[string]*types.Package{}}
	for dir := range dirs {
		imp.check(dir)
	}

	// The knobs: exported fields of configuration structs under internal/.
	knobs := map[string]*types.Var{}
	for dir, pkg := range imp.pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !isConfigName(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					knobs[strings.TrimPrefix(dir, "internal/")+"."+name+"."+f.Name()] = f
				}
			}
		}
	}

	// The callers.
	set := map[*types.Var]bool{}
	// defaults holds, per field, the bodies of ifs whose condition tests it.
	defaults := map[*types.Var][]*ast.BlockStmt{}
	isDefault := func(v *types.Var, pos token.Pos) bool {
		for _, b := range defaults[v] {
			if b.Pos() <= pos && pos < b.End() {
				return true
			}
		}
		return false
	}
	field := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var)
			}
		}
		return nil
	}
	for _, files := range dirs {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					if cond, ok := n.Cond.(*ast.BinaryExpr); ok {
						for _, side := range []ast.Expr{cond.X, cond.Y} {
							if v := field(side); v != nil {
								defaults[v] = append(defaults[v], n.Body)
							}
						}
					}
				case *ast.CompositeLit:
					tv := info.Types[n]
					if tv.Type == nil {
						return true
					}
					st, ok := tv.Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := info.Uses[key].(*types.Var); ok {
									set[v] = true
								}
							}
						} else if i < st.NumFields() {
							set[st.Field(i)] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if v := field(lhs); v != nil && !isDefault(v, lhs.Pos()) {
							set[v] = true
						}
					}
				}
				return true
			})
		}
	}

	var missing []string
	for name, v := range knobs {
		if _, kept := knobExceptions[name]; !set[v] && !kept {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s has no caller outside _test.go files: make it a constant at its default", name)
	}
	for name := range knobExceptions {
		if v, ok := knobs[name]; !ok {
			t.Errorf("exception %s names no configuration field", name)
		} else if set[v] {
			t.Errorf("%s is listed as an exception but has a caller: drop it from knobExceptions", name)
		}
	}
}

func isConfigName(name string) bool {
	return name == "Options" || name == "Opts" || strings.HasSuffix(name, "Config")
}

// moduleImporter type-checks this module's packages from the parsed
// files, keyed by directory, and stands in an empty package for any
// other import.
type moduleImporter struct {
	fset *token.FileSet
	dirs map[string][]*ast.File
	info *types.Info
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, "idea/"); ok {
		if _, ok := m.dirs[dir]; ok {
			return m.check(dir), nil
		}
	}
	pkg := types.NewPackage(path, filepath.Base(path))
	pkg.MarkComplete()
	return pkg, nil
}

func (m *moduleImporter) check(dir string) *types.Package {
	if pkg, ok := m.pkgs[dir]; ok {
		return pkg
	}
	path := "idea"
	if dir != "." {
		path += "/" + dir
	}
	conf := types.Config{Importer: m, Error: func(error) {}}
	pkg, _ := conf.Check(path, m.fset, m.dirs[dir], m.info)
	m.pkgs[dir] = pkg
	return pkg
}
