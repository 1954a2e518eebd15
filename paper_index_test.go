package globuscompute

import (
	"go/ast"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	testName   = regexp.MustCompile(`^(Test|Benchmark)\w*\*?$`)
	benchExp   = regexp.MustCompile(`^gc-bench -exp ([\w-]+)`)
)

// dangling reads the "Per-experiment index" table of a DESIGN.md and returns
// each backticked Test*/Benchmark* name that resolves to no func in tests (a
// trailing * matches by prefix) and each `gc-bench -exp X` that names no
// experiment in exps, as "<row ID>: <name>".
func dangling(doc string, tests, exps map[string]bool) []string {
	_, section, _ := strings.Cut(doc, "## Per-experiment index")
	section, _, _ = strings.Cut(section, "\n## ")
	var out []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.HasPrefix(strings.TrimSpace(cells[1]), "-") {
			continue
		}
		id := strings.TrimSpace(cells[1])
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			switch name := m[1]; {
			case testName.MatchString(name):
				if !resolves(name, tests) {
					out = append(out, id+": "+name)
				}
			case benchExp.MatchString(name):
				if exp := benchExp.FindStringSubmatch(name)[1]; !exps[exp] {
					out = append(out, id+": "+name)
				}
			}
		}
	}
	return out
}

func resolves(name string, tests map[string]bool) bool {
	prefix, star := strings.CutSuffix(name, "*")
	if !star {
		return tests[name]
	}
	for t := range tests {
		if strings.HasPrefix(t, prefix) {
			return true
		}
	}
	return false
}

// benchExperiments lists the experiment IDs cmd/gc-bench registers: the first
// string of each element of its []runner literal.
func benchExperiments(tree *sourceTree) map[string]bool {
	exps := map[string]bool{}
	ast.Inspect(tree.files["cmd/gc-bench/main.go"], func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if arr, ok := lit.Type.(*ast.ArrayType); !ok || exprKey(arr.Elt) != "runner" {
			return true
		}
		for _, elt := range lit.Elts {
			if r, ok := elt.(*ast.CompositeLit); ok && len(r.Elts) > 0 {
				if s, ok := r.Elts[0].(*ast.BasicLit); ok && s.Kind == token.STRING {
					id, _ := strconv.Unquote(s.Value)
					exps[id] = true
				}
			}
		}
		return false
	})
	return exps
}

// TestPaperIndexResolves fails when DESIGN.md's per-experiment index, the
// repo's claim to reproduce the paper, names a test, a benchmark or a
// gc-bench experiment that does not exist. Point the row at the test that
// covers it; never delete the row.
func TestPaperIndexResolves(t *testing.T) {
	tree := loadRepoTree(t)
	exps := benchExperiments(tree)
	if len(exps) == 0 {
		t.Fatal("found no experiments in cmd/gc-bench/main.go")
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dangling(string(doc), tree.tests, exps) {
		t.Errorf("DESIGN.md per-experiment index row %s: no such test func or gc-bench experiment", d)
	}
}

// TestPaperIndexFixture runs the index check over an in-memory table: an
// exact name, a prefix, a registered experiment and a backticked argument
// resolve; a dangling name, a prefix nothing matches and an unregistered
// experiment are reported, and a table outside the index is not read.
func TestPaperIndexFixture(t *testing.T) {
	doc := "# Design\n\n## Per-experiment index\n\n" +
		"| ID | Artifact | Target |\n|----|----|----|\n" +
		"| T1 | kept | `TestKept`; `BenchmarkKept`; `MaxBatch: 1`; `gc-bench -exp kept` |\n" +
		"| T2 | prefix | `TestPrefix*` |\n" +
		"| T3 | gone | `TestGone`, `TestNone*`, `gc-bench -exp gone` |\n" +
		"\n## Architecture\n\n| X | `TestElsewhere` |\n"
	tests := map[string]bool{"TestKept": true, "BenchmarkKept": true, "TestPrefixOne": true}
	got := strings.Join(dangling(doc, tests, map[string]bool{"kept": true}), ", ")
	if want := "T3: TestGone, T3: TestNone*, T3: gc-bench -exp gone"; got != want {
		t.Errorf("dangling = %q, want %q", got, want)
	}
}
