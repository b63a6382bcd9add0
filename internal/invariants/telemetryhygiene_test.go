package invariants

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// lookupMethods are the Registry methods that intern a metric by name.
var lookupMethods = map[string]bool{
	"Counter":       true,
	"Gauge":         true,
	"Histogram":     true,
	"HistogramWith": true,
}

// namePattern is the README inventory convention: dot-separated
// lowercase words, at least subsystem.name.
var namePattern = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

// telemetryHygiene checks the metric-registry conventions:
//
//  1. metric names passed to Registry.Counter/Gauge/Histogram/
//     HistogramWith must be compile-time constants matching the README
//     inventory convention (subsystem.metric_name, lowercase,
//     dot-separated, [a-z0-9_] words) — dynamically built names cannot
//     be cross-checked against the inventory table and silently fork
//     metric families;
//  2. registry lookups must be hoisted out of loops: each lookup takes
//     the registry lock and a map hit, so a lookup in a hot loop turns
//     a per-op counter bump into a per-op lock acquisition. Handles are
//     cheap to hold — resolve them once and reuse.
//
// Per-instance metric families built at boot (one gauge per shard, one
// queue-depth gauge per peer) are legitimate dynamic names: annotate
// them with //idealint:allow telemetryhygiene <reason>.
func telemetryHygiene(pass *Pass, rep *Reporter) {
	WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		if InTestFile(pass.Fset, n.Pos()) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !lookupMethods[sel.Sel.Name] || len(call.Args) < 1 {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !IsNamedType(sig.Recv().Type(), "telemetry", "Registry") {
			return true
		}
		checkName(pass, rep, sel.Sel.Name, call.Args[0])
		if inLoop(stack) {
			rep.Reportf(call.Pos(),
				"Registry.%s inside a loop takes the registry lock every iteration; hoist the lookup and reuse the handle",
				sel.Sel.Name)
		}
		return true
	})
}

func checkName(pass *Pass, rep *Reporter, method string, arg ast.Expr) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		rep.Reportf(arg.Pos(),
			"metric name passed to Registry.%s is not a compile-time constant; the README inventory cannot account for dynamic names",
			method)
		return
	}
	if name := constant.StringVal(tv.Value); !namePattern.MatchString(name) {
		rep.Reportf(arg.Pos(),
			"metric name %q does not match the inventory convention (subsystem.metric_name, lowercase dot-separated words)",
			name)
	}
}

// inLoop reports whether the innermost enclosing statement context is a
// for/range body rather than a function boundary: a lookup inside a
// closure is charged to the closure, not to a loop that merely defines
// it.
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}
