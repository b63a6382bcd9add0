package invariants

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// knobExceptions are the settable fields no code outside a _test.go file
// sets, kept on purpose. Every other exported field of a configuration
// struct must have a caller; a value nobody picks is a constant.
//
// Kept too, but with callers outside tests so the guard passes them:
// health.Config.History and FsyncSpikeMs and tracing.Config.Buffer
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
// The module's non-test packages are type-checked from source, so a key
// or selector resolves to the field it names, not just its name.
func TestEveryKnobHasACaller(t *testing.T) {
	m := loadModule(t)

	// The knobs: exported fields of configuration structs under internal/.
	knobs := map[string]*types.Var{}
	for _, p := range m.bases {
		pkg := p.Pkg
		dir, ok := strings.CutPrefix(pkg.Path(), m.modPath+"/internal/")
		if !ok {
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
					knobs[dir+"."+name+"."+f.Name()] = f
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
	for _, p := range m.bases {
		info := p.TypesInfo
		field := func(e ast.Expr) *types.Var {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return s.Obj().(*types.Var)
				}
			}
			return nil
		}
		for _, f := range p.Files {
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
