// Package invariants machine-checks the conventions the compiler cannot:
// replay determinism, shard affinity, trace propagation and telemetry
// hygiene. Each rule is a func over a type-checked package (a Pass).
// TestInvariants runs all of them over the whole module, its tests
// included, in the default and the soak build; each rule's fixture tree
// under testdata/<rule>/src pins what it flags with `// want` lines.
// The package is test-only and uses nothing outside the standard
// library: go/parser and go/types check the module from source.
//
// # Suppression
//
// A finding is suppressed by a directive comment on the same line or on
// the line immediately above it:
//
//	//idealint:allow <rule> <reason>
//
// The rule name must match the reporting rule (or be the word "all"),
// and the reason is mandatory: a directive without one does not
// suppress anything and is itself reported, so every intentional
// exception in the tree carries its justification next to the code. A
// directive with a reason that suppresses nothing fails the tests too.
package invariants

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// module is the module, parsed and type-checked once per test binary.
var module = sync.OnceValues(func() (*moduleUnits, error) {
	root, modPath, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	def, err := newLoader(root, modPath)
	if err != nil {
		return nil, err
	}
	soak, err := def.retag("soak")
	if err != nil {
		return nil, err
	}
	m := &moduleUnits{root: root, modPath: modPath}
	m.units = def.units(func(string) bool { return true })
	m.units = append(m.units, soak.units(func(path string) bool { return def.retagged(soak, path) })...)
	for _, path := range slices.Sorted(maps.Keys(def.dirs)) {
		if len(def.dirs[path].GoFiles) > 0 {
			m.bases = append(m.bases, def.load(path, ""))
		}
	}
	m.errs = append(def.errs, soak.errs...)
	return m, nil
})

type moduleUnits struct {
	root, modPath string
	// units are the packages go vet checks: in the default build, and
	// in the soak build where its tag selects other files.
	units []*Pass
	bases []*Pass  // the default build's non-test packages
	errs  []string // parse and type errors of either build
}

// loadModule returns the module, failing t if it does not type-check: a
// package that stops compiling must not pass these tests by resolving
// to nothing.
func loadModule(t *testing.T) *moduleUnits {
	t.Helper()
	m, err := module()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.errs) > 0 {
		errs := slices.Compact(slices.Sorted(slices.Values(m.errs)))
		t.Fatalf("the module does not type-check:\n%s", strings.Join(errs, "\n"))
	}
	return m
}

// TestInvariants runs every rule over the module. Any unsuppressed
// finding fails it, as does an allow directive that suppresses nothing.
func TestInvariants(t *testing.T) {
	m := loadModule(t)
	for _, line := range report(m.root, m.units) {
		t.Error(line)
	}
}

// report runs every rule over units and returns the sorted lines
// TestInvariants fails with, paths relative to root: one per
// unsuppressed finding and one per allow directive that suppresses
// nothing. A file checked in two builds reports each line once.
func report(root string, units []*Pass) []string {
	out := map[string]bool{}
	rel := func(file string) string {
		if r, err := filepath.Rel(root, file); err == nil {
			return r
		}
		return file
	}
	for _, p := range units {
		findings, idle := check(p)
		for _, f := range findings {
			out[fmt.Sprintf("%s:%d: %s: %s", rel(f.pos.Filename), f.pos.Line, f.rule, f.msg)] = true
		}
		for _, pos := range idle {
			out[fmt.Sprintf("%s:%d: idealint:allow directive suppresses nothing; delete it", rel(pos.Filename), pos.Line)] = true
		}
	}
	return slices.Sorted(maps.Keys(out))
}

// TestExitCodes runs the tree check over scratch modules. A tree passes
// (go test exits zero) exactly when its report is empty.
func TestExitCodes(t *testing.T) {
	const stamp = "package detect\n\nimport \"time\"\n\nfunc Stamp() int64 {\n%s\treturn time.Now().UnixNano()\n}\n"
	for _, c := range []struct {
		name, pkg, src string
		want           []string // what the report must contain; nil: it must be empty
	}{
		{"clean tree exits zero", "clean", "package clean\n\nfunc Add(a, b int) int { return a + b }\n", nil},
		{"violation exits nonzero and names the rule", "detect", fmt.Sprintf(stamp, ""),
			[]string{"determinism", "time.Now", "simnet replay"}},
		{"allow directive suppresses back to zero", "detect",
			fmt.Sprintf(stamp, "\t//idealint:allow determinism boot-time wall clock, never replayed\n"), nil},
		{"reasonless directive does not suppress", "detect", fmt.Sprintf(stamp, "\t//idealint:allow determinism\n"),
			[]string{"time.Now", "needs a reason"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := errors.Join(os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644),
				os.Mkdir(filepath.Join(dir, c.pkg), 0o755),
				os.WriteFile(filepath.Join(dir, c.pkg, c.pkg+".go"), []byte(c.src), 0o644)); err != nil {
				t.Fatal(err)
			}
			l, err := newLoader(dir, "scratch")
			if err != nil {
				t.Fatal(err)
			}
			units := l.units(func(string) bool { return true })
			if len(l.errs) > 0 {
				t.Fatalf("scratch module does not type-check:\n%s", strings.Join(l.errs, "\n"))
			}
			out := strings.Join(report(dir, units), "\n")
			if c.want == nil && out != "" {
				t.Errorf("want an empty report, got:\n%s", out)
			}
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("report should contain %q, got:\n%s", w, out)
				}
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	runFixtures(t, "determinism", "detect", "notproto")
}

func TestShardAffinity(t *testing.T) {
	runFixtures(t, "shardaffinity", "driver", "detect", "ransub", "core")
}

func TestTracePropagation(t *testing.T) {
	runFixtures(t, "tracepropagation", "handlers")
}

func TestTelemetryHygiene(t *testing.T) {
	runFixtures(t, "telemetryhygiene", "metrics")
}

// runFixtures checks each fixture package under testdata/<rule>/src,
// with its in-package tests, against rule alone: every `// want` regexp
// must match a finding on its line, every finding must be claimed by
// one, and every allow directive with a reason must suppress something.
// A fixture imports its sibling directories by name; anything else is
// the standard library.
func runFixtures(t *testing.T, rule string, pkgs ...string) {
	t.Helper()
	l, err := newLoader(filepath.Join("testdata", rule, "src"), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkgs {
		if l.dirs[path] == nil {
			t.Errorf("no fixture package %s", path)
			continue
		}
		p := l.load(path, path)
		if len(l.errs) > 0 {
			t.Fatalf("fixture %s does not type-check:\n%s", path, strings.Join(l.errs, "\n"))
		}
		findings, idle := check(p, rule)
		checkWants(t, p, findings)
		for _, pos := range idle {
			t.Errorf("%s: allow directive suppresses nothing", pos)
		}
	}
}

// wantRe extracts the expectations from a "// want ..." comment:
// backquoted or double-quoted regexps, space-separated.
var wantRe = regexp.MustCompile("(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

func checkWants(t *testing.T, p *Pass, findings []finding) {
	t.Helper()
	var wants []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllString(text, -1) {
					raw := m
					if m[0] == '"' {
						if uq, err := strconv.Unquote(m); err == nil {
							raw = uq
						}
					} else {
						raw = strings.Trim(m, "`")
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, m, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, d := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.pos.Filename && w.line == d.pos.Line && w.re.MatchString(d.msg) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.pos.Filename, d.pos.Line, d.msg)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
