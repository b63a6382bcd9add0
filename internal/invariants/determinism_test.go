package invariants

import (
	"go/ast"
	"go/types"
)

// bannedTime is the set of time-package functions that read the ambient
// wall clock or arm ambient timers.
var bannedTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
	"Sleep":     true,
}

// determinism checks the replay-determinism contract of the protocol
// packages: simnet turns a seed into a byte-identical event trace only
// if protocol code observes time through env.Env.Now/After, draws
// randomness through env.Env.Rand, and never lets Go's randomized map
// iteration order escape onto the wire.
//
// Three rules, applied to non-test files of protocol packages (see
// ProtocolPackages):
//
//  1. no ambient clock: time.Now, time.Since, time.Until, time.After,
//     time.Tick, time.NewTimer, time.NewTicker, time.AfterFunc and
//     time.Sleep are forbidden — use e.Now() and e.After(...);
//  2. no ambient randomness: any use of math/rand or math/rand/v2 is
//     forbidden — use e.Rand(), which is seeded per serialization
//     domain;
//  3. no order-escaping map iteration: a `range` over a map must not
//     append to a slice declared outside the loop, send a protocol
//     message, or send on a channel, unless the collected result is
//     sorted before it can escape (a sort call on the slice later in
//     the same function is recognized).
//
// Intentional exceptions carry //idealint:allow determinism <reason>.
func determinism(pass *Pass, rep *Reporter) {
	if !IsProtocolPkg(pass.Pkg.Path()) {
		return
	}
	WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		if InTestFile(pass.Fset, n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			checkSelector(pass, rep, n)
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				break
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				break
			}
			checkMapRange(pass, rep, enclosingBody(stack), n)
		}
		return true
	})
}

// enclosingBody returns the body of the innermost function on the
// traversal stack, or nil at package scope.
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	switch fn := FuncScope(stack).(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// checkSelector flags uses of banned time functions and any math/rand
// selector.
func checkSelector(pass *Pass, rep *Reporter, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		if bannedTime[sel.Sel.Name] {
			rep.Reportf(sel.Pos(),
				"time.%s in protocol package %s breaks simnet replay; use env.Env.Now/After",
				sel.Sel.Name, PathBase(pass.Pkg.Path()))
		}
	case "math/rand", "math/rand/v2":
		rep.Reportf(sel.Pos(),
			"%s.%s in protocol package %s breaks simnet replay; use env.Env.Rand()",
			id.Name, sel.Sel.Name, PathBase(pass.Pkg.Path()))
	}
}

// checkMapRange flags a map-range loop whose iteration order escapes:
// appends to outer slices, protocol sends, or channel sends inside the
// loop body.
func checkMapRange(pass *Pass, rep *Reporter, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			rep.Reportf(rs.Pos(),
				"map iteration order escapes via channel send; iterate sorted keys")
			return false
		case *ast.CallExpr:
			obj := calleeFunc(pass, n)
			if obj == nil {
				return true
			}
			if b, ok := obj.(*types.Builtin); ok && b.Name() == "append" {
				if tgt := outerAppendTarget(pass, n, rs); tgt != nil {
					if fnBody == nil || !sortedLater(pass, fnBody, rs, tgt) {
						rep.Reportf(rs.Pos(),
							"map iteration order escapes into slice %s; iterate sorted keys or sort %s before it escapes",
							tgt.Name(), tgt.Name())
					}
					return false
				}
				return true
			}
			if fn, ok := obj.(*types.Func); ok && fn.Name() == "Send" && isMethod(fn) {
				rep.Reportf(rs.Pos(),
					"map iteration order escapes via %s.Send; iterate sorted keys (e.g. sorted member order)",
					recvName(fn))
				return false
			}
		}
		return true
	})
}

// calleeFunc resolves the object a call invokes (func, method, or
// builtin), or nil.
func calleeFunc(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// outerAppendTarget returns the object of `x` in `x = append(x, ...)`
// when x is declared outside the range statement — the case where
// append order is observable after the loop. Appends to loop-local
// slices return nil. Appends through selectors (s.field) always target
// state that outlives the loop.
func outerAppendTarget(pass *Pass, call *ast.CallExpr, rs *ast.RangeStmt) *types.Var {
	if len(call.Args) == 0 {
		return nil
	}
	switch tgt := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[tgt].(*types.Var)
		if !ok {
			return nil
		}
		if v.Pos() >= rs.Pos() && v.Pos() < rs.End() {
			return nil // declared inside the loop: order cannot escape it
		}
		return v
	case *ast.SelectorExpr:
		if v, ok := pass.TypesInfo.Uses[tgt.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// sortedLater reports whether, after the range statement, the enclosing
// function sorts the slice object (sort.* or slices.Sort* with tgt as
// an argument or selector base) — the blessed pattern for collecting
// map entries and canonicalizing before they escape.
func sortedLater(pass *Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, tgt *types.Var) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn, ok := calleeFunc(pass, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if refersTo(pass, arg, tgt) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// refersTo reports whether expr mentions the variable tgt.
func refersTo(pass *Pass, expr ast.Expr, tgt *types.Var) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == tgt {
			found = true
		}
		return !found
	})
	return found
}
