package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture tests mirror golang.org/x/tools/go/analysis/analysistest:
// each analyzer runs over a fixture tree under testdata/src/<name>/...
// (its own module, so real import paths like example/internal/core gate
// the Applies scoping), and every diagnostic must match a `// want
// "regexp"` comment on its line — in both directions. A finding with no
// want fails, and a want with no finding fails, so the fixtures pin
// true positives AND true negatives.

func TestFsioCheckFixtures(t *testing.T)     { runFixture(t, FsioCheck, "fsiocheck") }
func TestErrSyncFixtures(t *testing.T)       { runFixture(t, ErrSync, "errsync") }
func TestCtxCheckFixtures(t *testing.T)      { runFixture(t, CtxCheck, "ctxcheck") }
func TestCommitPointFixtures(t *testing.T)   { runFixture(t, CommitPoint, "commitpoint") }
func TestLockOrderFixtures(t *testing.T)     { runFixture(t, LockOrder, "lockorder") }
func TestLockOrderCycleFixture(t *testing.T) { runFixture(t, LockOrder, "lockcycle") }
func TestLockOrderLatchSets(t *testing.T)    { runFixture(t, LockOrder, "locksets") }

// TestLockRankNamesCoreFields keeps the rank table honest against the
// store itself: every ranked "Type.field" must be a field of that type
// in internal/core, so a deleted latch cannot leave a stale rank behind.
func TestLockRankNamesCoreFields(t *testing.T) {
	paths, err := filepath.Glob("../core/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						fields[ts.Name.Name+"."+name.Name] = true
					}
				}
			}
			return false
		})
	}
	if len(fields) == 0 {
		t.Fatal("parsed no struct fields from internal/core")
	}
	for key := range lockRank {
		if !fields[key] {
			t.Errorf("lockRank ranks %s, which is not a field in internal/core", key)
		}
	}
}

// wantRx extracts the quoted or backquoted patterns of a want comment.
var wantRx = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./"+name+"/...")
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	var wants []*want
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			t.Errorf("fixture %s: type error: %v", name, e)
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRx.FindAllStringSubmatch(rest, -1) {
						pat := m[1]
						if m[2] != "" {
							pat = m[2]
						}
						rx, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx})
					}
				}
			}
		}
	}

	diags := Run(pkgs, []*Analyzer{a})
	for _, d := range diags {
		if w := takeWant(wants, d.File, d.Line, d.Message); w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// takeWant claims the first unmatched want on the diagnostic's line
// whose pattern matches the message.
func takeWant(wants []*want, file string, line int, message string) *want {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.rx.MatchString(message) {
			w.matched = true
			return w
		}
	}
	return nil
}

// TestDirectiveRequiresReason pins the escape-hatch contract at the
// framework level: a bare allow directive never suppresses.
func TestDirectiveRequiresReason(t *testing.T) {
	if directiveMatches("avlint:allow-os", "allow-os") {
		t.Error("bare directive suppressed without a reason")
	}
	if !directiveMatches("avlint:allow-os legacy bench artifact", "allow-os") {
		t.Error("directive with reason failed to suppress")
	}
	if directiveMatches("avlint:allow-oswald reason", "allow-os") {
		t.Error("prefix-overlapping directive suppressed the wrong analyzer")
	}
}

func TestPathSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"arrayvers/internal/core", "internal/core", true},
		{"example/internal/core", "internal/core", true},
		{"internal/core", "internal/core", true},
		{"arrayvers/maternal/core", "internal/core", false},
		{"arrayvers/internal/core/sub", "internal/core", false},
	}
	for _, c := range cases {
		if got := PathSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("PathSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "fsiocheck", File: "a.go", Line: 3, Col: 7, Message: "m"}
	if got, want := d.String(), "a.go:3:7: fsiocheck: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
