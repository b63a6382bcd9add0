package invariants

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// injectorPkgs are the package-path bases whose Inject/Call methods are
// node-global entry points with per-file siblings. True marks the live
// ones, whose shards run as parallel goroutines: rule 1 binds their
// callers in test files as well.
var injectorPkgs = map[string]bool{
	"transport": true,
	"cluster":   true,
	"simnet":    false,
	"core":      false,
	"idea":      false,
}

// fileSibling maps a node-global entry point to its file-routed form.
var fileSibling = map[string]string{
	"Inject": "InjectFile",
	"Call":   "CallFile",
	"CallAt": "CallAtFile",
}

// shardAffinity checks the sharded-runtime contract: everything
// touching one file must execute in the shard that owns the file, and
// cross-shard shared state must go through its designated safe
// accessors.
//
// Three rules:
//
//  1. per-file work must not ride node-global injection: a function
//     literal passed to Inject/Call/CallAt (on the transport node, the
//     simnet cluster, core, or the facade) that mentions an id.FileID
//     value runs on shard 0 regardless of the file it touches — use
//     InjectFile/CallFile/CallAtFile so the runtime routes it. Test
//     files are held to this rule too where the injector is a live one
//     (transport.Node, cluster.LiveNode alias idea.LiveNode): their
//     shards are real goroutines, so the misuse is a data race, not just
//     a misrouted event. simnet Call/CallAt in tests stay exempt;
//  2. per-file protocol packages (those exporting a TimerFile or
//     TimerShard router) must arm routable timers: every key passed to
//     env.Env.After must be a compile-time constant the package's
//     router handles, and routed keys must not carry nil data (the
//     router would silently fall back to shard 0);
//  3. hook fields (the atomically swappable callback slots of type
//     hook[T]) must be installed through their SetOn* setters — a
//     direct field write races with shard callbacks reading the hook.
//
// Intentional exceptions carry //idealint:allow shardaffinity <reason>.
func shardAffinity(pass *Pass, rep *Reporter) {
	routed := routedTimerKeys(pass)

	WithStack(pass.Files, func(n ast.Node, _ []ast.Node) bool {
		inTest := InTestFile(pass.Fset, n.Pos())
		switch n := n.(type) {
		case *ast.CallExpr:
			checkInject(pass, rep, n, inTest)
			if inTest {
				break
			}
			if routed != nil {
				checkAfter(pass, rep, n, routed)
			}
		case *ast.AssignStmt:
			if !inTest {
				checkHookWrite(pass, rep, n)
			}
		}
		return true
	})
}

// checkInject flags node-global Inject/Call/CallAt invocations whose
// function-literal argument mentions an id.FileID value. In test files
// only the live injectors are checked.
func checkInject(pass *Pass, rep *Reporter, call *ast.CallExpr, inTest bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	sib, ok := fileSibling[sel.Sel.Name]
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if live, ok := injectorPkgs[PathBase(fn.Pkg().Path())]; !ok || inTest && !live {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		if at, found := mentionsFileID(pass, lit); found {
			rep.Reportf(at.Pos(),
				"per-file work runs node-global through %s.%s; use %s so it executes in the file's shard",
				recvName(fn), sel.Sel.Name, sib)
			return
		}
	}
}

func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if n := NamedFrom(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}

// mentionsFileID reports whether any expression inside the function
// literal has type id.FileID (the facade's FileID alias resolves to the
// same named type).
func mentionsFileID(pass *Pass, lit *ast.FuncLit) (ast.Node, bool) {
	var at ast.Node
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if at != nil {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if t := pass.TypesInfo.TypeOf(expr); t != nil && IsNamedType(t, "id", "FileID") {
			at = n
			return false
		}
		return true
	})
	if at != nil {
		return at, true
	}
	return nil, false
}

// routedTimerKeys collects, for packages exporting TimerFile/TimerShard
// routers, every string constant mentioned inside a router body: the
// keys the package actually routes. It returns nil when the package has
// no router (its timers are node-global by design and exempt).
func routedTimerKeys(pass *Pass) map[string]bool {
	var keys map[string]bool
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			if fd.Name.Name != "TimerFile" && fd.Name.Name != "TimerShard" {
				continue
			}
			if keys == nil {
				keys = make(map[string]bool)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				expr, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[expr]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
					keys[constant.StringVal(tv.Value)] = true
				}
				return true
			})
		}
	}
	return keys
}

// checkAfter verifies that an env.Env.After call in a router-bearing
// package arms a timer the router can route: constant key, known to the
// router, with non-nil data.
func checkAfter(pass *Pass, rep *Reporter, call *ast.CallExpr, routed map[string]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "After" || len(call.Args) != 3 {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || !IsPkg(fn, "env") {
		return
	}
	keyArg, dataArg := call.Args[1], call.Args[2]
	tv, ok := pass.TypesInfo.Types[keyArg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		rep.Reportf(keyArg.Pos(),
			"timer key is not a compile-time constant; %s's TimerFile/TimerShard cannot route it",
			PathBase(pass.Pkg.Path()))
		return
	}
	key := constant.StringVal(tv.Value)
	if !routed[key] {
		rep.Reportf(keyArg.Pos(),
			"timer key %q is not handled by this package's TimerFile/TimerShard; the callback would silently run on shard 0",
			key)
		return
	}
	if id, ok := ast.Unparen(dataArg).(*ast.Ident); ok && id.Name == "nil" {
		if _, isNil := pass.TypesInfo.Uses[id].(*types.Nil); isNil {
			rep.Reportf(dataArg.Pos(),
				"routed timer key %q armed with nil data; the router cannot recover the owning file/shard",
				key)
		}
	}
}

// checkHookWrite flags assignments whose left-hand side is a hook[T]
// field — those must go through the SetOn* setters (atomic swap).
func checkHookWrite(pass *Pass, rep *Reporter, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		t := pass.TypesInfo.TypeOf(sel)
		n := NamedFrom(t)
		if n == nil || n.Obj().Name() != "hook" {
			continue
		}
		rep.Reportf(lhs.Pos(),
			"direct write to hook field %s races with shard callbacks; install it via the SetOn* setter",
			sel.Sel.Name)
	}
}
