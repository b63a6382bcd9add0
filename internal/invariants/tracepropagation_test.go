package invariants

import (
	"go/ast"
	"go/types"
)

// tracePropagation checks the causal-tracing contract: every wire
// struct that carries a TC (tracing.Context) field must have that field
// forwarded whenever a handler constructs a derived frame — otherwise a
// sampled write's timeline silently ends at the first handler somebody
// forgot to thread it through.
//
// The check is structural: a composite literal of a TC-bearing wire
// struct that does not set TC is reported when a trace context is
// reachable in the enclosing function — as a tracing.Context-typed
// expression (parameter, local, field selector like s.tc or m.TC), or
// through a parameter/receiver whose struct type itself carries a
// Context field. Functions with no context in reach (mint sites, tests,
// decode targets) are exempt, as are literals whose TC is assigned
// separately later in the same function.
//
// Intentional exceptions carry //idealint:allow tracepropagation
// <reason>.
func tracePropagation(pass *Pass, rep *Reporter) {
	WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		if InTestFile(pass.Fset, n.Pos()) {
			return false
		}
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		name, ok := tcBearingWireStruct(pass, lit)
		if !ok || setsTC(pass, lit) {
			return true
		}
		fn := FuncScope(stack)
		if fn == nil {
			return true // package-level fixture value
		}
		if tcAssignedInFunc(fn) {
			return true // built empty, context attached separately
		}
		if contextReachable(pass, fn) {
			rep.Reportf(lit.Pos(),
				"wire.%s carries a trace context but TC is not set here; forward the inbound frame's TC so the op's timeline survives this hop",
				name)
		}
		return true
	})
}

// tcBearingWireStruct reports whether the literal builds a struct from a
// wire package that has a TC field of type tracing.Context, returning
// the struct's name.
func tcBearingWireStruct(pass *Pass, lit *ast.CompositeLit) (string, bool) {
	t := pass.TypesInfo.TypeOf(lit)
	n := NamedFrom(t)
	if n == nil || !IsPkg(n.Obj(), "wire") {
		return "", false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "TC" && IsNamedType(f.Type(), "tracing", "Context") {
			return n.Obj().Name(), true
		}
	}
	return "", false
}

// setsTC reports whether the literal assigns the TC field, either by
// key or positionally (a full positional literal covers every field).
func setsTC(pass *Pass, lit *ast.CompositeLit) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			// Positional literal: all fields present, TC included.
			return true
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "TC" {
			return true
		}
	}
	return false
}

// tcAssignedInFunc reports whether the function contains an assignment
// to a .TC selector — the build-then-attach pattern.
func tcAssignedInFunc(fn ast.Node) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return !found
		}
		for _, lhs := range as.Lhs {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "TC" {
				found = true
			}
		}
		return !found
	})
	return found
}

// contextReachable reports whether the enclosing function can see a
// trace context: any tracing.Context-typed expression in its body, or a
// parameter/receiver whose struct type (one level deep, through
// pointers) has a tracing.Context field. Result types deliberately do
// not count — returning a TC-bearing frame is the construction under
// scrutiny, not a context source.
func contextReachable(pass *Pass, fn ast.Node) bool {
	var inputs []*ast.FieldList
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		inputs = []*ast.FieldList{f.Recv, f.Type.Params}
		body = f.Body
	case *ast.FuncLit:
		inputs = []*ast.FieldList{f.Type.Params}
		body = f.Body
	default:
		return false
	}
	for _, fl := range inputs {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if IsNamedType(t, "tracing", "Context") || structHasContextField(t) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if expr, ok := n.(ast.Expr); ok {
			if t := pass.TypesInfo.TypeOf(expr); t != nil && IsNamedType(t, "tracing", "Context") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func structHasContextField(t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if IsNamedType(st.Field(i).Type(), "tracing", "Context") {
			return true
		}
	}
	return false
}
