package invariants

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// A Pass is one type-checked package as a rule sees it. Report receives
// every finding the rule's Reporter lets through.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(pos token.Pos, msg string)
}

// rules is the suite. Adding a rule is a func over a Pass that reports
// through its Reporter, a fixture tree under testdata/<name>/src with
// `// want` lines, and a test that runs it over that tree.
var rules = []struct {
	name string
	run  func(*Pass, *Reporter)
}{
	{"determinism", determinism},
	{"shardaffinity", shardAffinity},
	{"tracepropagation", tracePropagation},
	{"telemetryhygiene", telemetryHygiene},
}

// A finding is one report a rule made past the allow directives.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

// check runs the named rules (every rule when only is empty) over p. It
// returns their findings, and the position of each directive with a
// reason that suppressed nothing: an exception nobody needs any more.
func check(p *Pass, only ...string) (findings []finding, idle []token.Position) {
	dirs := indexDirectives(p)
	for _, r := range rules {
		if len(only) > 0 && !slices.Contains(only, r.name) {
			continue
		}
		pass := *p
		pass.Report = func(pos token.Pos, msg string) {
			findings = append(findings, finding{p.Fset.Position(pos), r.name, msg})
		}
		r.run(&pass, &Reporter{pass: &pass, name: r.name, byFile: dirs, flaggedBad: map[*directive]bool{}})
	}
	for _, byLine := range dirs {
		for _, ds := range byLine {
			for _, d := range ds {
				if d.hasReason && !d.used {
					idle = append(idle, p.Fset.Position(d.pos))
				}
			}
		}
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].String() < idle[j].String() })
	return findings, idle
}

// ProtocolPackages names the packages whose code runs inside the
// runtime's serialization domains and therefore must be deterministic:
// the simnet replays a seed into a byte-identical trace only if protocol
// code draws time and randomness from env.Env alone. The set is matched
// against the last element of a package's import path, so it covers both
// the real tree (idea/internal/detect) and the rules' fixtures.
var ProtocolPackages = map[string]bool{
	"detect":     true,
	"resolve":    true,
	"gossip":     true,
	"health":     true,
	"membership": true,
	"core":       true,
	"store":      true,
	"overlay":    true,
	"ransub":     true,
	"quantify":   true,
	"vv":         true,
	"wire":       true,
}

// IsProtocolPkg reports whether the import path names a protocol
// package (one subject to the determinism contract).
func IsProtocolPkg(path string) bool {
	return ProtocolPackages[PathBase(path)]
}

// PathBase returns the last element of an import path.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// IsPkg reports whether the named type's defining package has the given
// import-path base ("wire", "tracing", "id", ...). It is how rules
// recognize idea types without hard-coding the module path, which also
// lets their testdata fixtures stand in fake packages with the same
// base name.
func IsPkg(obj types.Object, base string) bool {
	return obj != nil && obj.Pkg() != nil && PathBase(obj.Pkg().Path()) == base
}

// NamedFrom unwraps t to a *types.Named, looking through pointers and
// aliases; it returns nil for anything else.
func NamedFrom(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// IsNamedType reports whether t (through pointers/aliases) is the named
// type pkgBase.name.
func IsNamedType(t types.Type, pkgBase, name string) bool {
	n := NamedFrom(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && IsPkg(obj, pkgBase)
}

// InTestFile reports whether pos lies in a _test.go file. The rules
// skip test files: tests drive wall-clock deadlines and build ad-hoc
// frames outside any serialization domain, and the determinism contract
// binds protocol code, not its harnesses.
func InTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// FuncScope walks up a traversal stack to the innermost enclosing
// function node (FuncDecl or FuncLit); nil when at package scope.
func FuncScope(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// WithStack walks the files depth-first, as ast.Inspect does, and calls
// f on each node with the stack of nodes leading to it: the first is an
// *ast.File, the last is n itself. When f returns false, n's children
// are skipped.
func WithStack(files []*ast.File, f func(n ast.Node, stack []ast.Node) (proceed bool)) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			if !f(n, stack) {
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		})
	}
}

// directive is one parsed //idealint:allow comment.
type directive struct {
	rules     []string
	hasReason bool
	pos       token.Pos
	used      bool // it suppressed a finding
}

// DirectivePrefix is the comment prefix of a suppression directive.
const DirectivePrefix = "//idealint:allow"

// indexDirectives maps filename -> line -> the directives on that line,
// for every file of the package.
func indexDirectives(p *Pass) map[string]map[int][]*directive {
	byFile := make(map[string]map[int][]*directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, DirectivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //idealint:allowance
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				d := &directive{
					rules:     strings.Split(fields[0], ","),
					hasReason: len(fields) > 1,
					pos:       c.Pos(),
				}
				pos := p.Fset.Position(c.Pos())
				m := byFile[pos.Filename]
				if m == nil {
					m = make(map[int][]*directive)
					byFile[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], d)
			}
		}
	}
	return byFile
}

// Reporter wraps Pass.Report with suppression-directive handling for
// one rule.
type Reporter struct {
	pass *Pass
	name string
	// byFile maps filename -> line -> directives on that line.
	byFile map[string]map[int][]*directive
	// flaggedBad marks malformed directives already reported, so a
	// directive shielding two findings is complained about once.
	flaggedBad map[*directive]bool
}

// Reportf reports a finding at pos unless a well-formed directive on the
// finding's line (or the line above) allows this rule. A directive
// that names this rule but carries no reason does not suppress and
// is itself reported. It returns true if the finding was emitted.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) bool {
	p := r.pass.Fset.Position(pos)
	if m := r.byFile[p.Filename]; m != nil {
		for _, line := range [2]int{p.Line, p.Line - 1} {
			for _, d := range m[line] {
				if !r.covers(d) {
					continue
				}
				if d.hasReason {
					d.used = true
					return false
				}
				if !r.flaggedBad[d] {
					r.flaggedBad[d] = true
					// Report at the finding, not the directive: the
					// directive does not suppress until it explains
					// itself.
					r.pass.Report(pos, fmt.Sprintf("idealint:allow directive needs a reason: //idealint:allow %s <why>", r.name))
				}
			}
		}
	}
	r.pass.Report(pos, fmt.Sprintf(format, args...))
	return true
}

func (r *Reporter) covers(d *directive) bool {
	for _, a := range d.rules {
		if a == r.name || a == "all" {
			return true
		}
	}
	return false
}
