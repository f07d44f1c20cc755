package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the fixture goldens when the test runs with
// GPA_LINT_UPDATE=1. Goldens are reviewed by hand after regeneration;
// the committed files are the contract.
var update = os.Getenv("GPA_LINT_UPDATE") == "1"

// renderResult formats a driver result the way the goldens store it:
// one "file:line:col: analyzer: message" line per diagnostic followed
// by one "waiver file:line: analyzer: reason" line per waiver, with
// filenames relative to the fixture root.
func renderResult(t *testing.T, dir string, res *Result) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range res.Diagnostics {
		rel, err := filepath.Rel(abs, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	for _, w := range res.Waivers {
		rel, err := filepath.Rel(abs, w.Pos.Filename)
		if err != nil {
			rel = w.Pos.Filename
		}
		fmt.Fprintf(&b, "waiver %s:%d: %s: %s\n", filepath.ToSlash(rel), w.Pos.Line, w.Analyzer, w.Reason)
	}
	return b.String()
}

// checkFixture loads the mini-module under testdata/src/<name>, runs
// the given analyzers, and compares the rendered result against the
// fixture's expected.txt golden.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	got := renderResult(t, dir, Run(pkgs, analyzers))

	golden := filepath.Join(dir, "expected.txt")
	if update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with GPA_LINT_UPDATE=1 to create): %v", err)
	}
	if want := string(wantBytes); got != want {
		t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestDetLintFixture(t *testing.T) {
	checkFixture(t, "detbad", []*Analyzer{
		DetLint(DetConfig{Critical: map[string][]string{"det.example": nil}}),
	})
}

// TestDetLintFileScope pins the file-scoped form used for the service
// package: with only a non-existent file in scope, the same fixture
// produces no findings.
func TestDetLintFileScope(t *testing.T) {
	dir := filepath.Join("testdata", "src", "detbad")
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	res := Run(pkgs, []*Analyzer{
		DetLint(DetConfig{Critical: map[string][]string{"det.example": {"other.go"}}}),
	})
	if len(res.Diagnostics) != 0 {
		t.Errorf("file-scoped detlint over out-of-scope files reported %d findings:\n%s",
			len(res.Diagnostics), renderResult(t, dir, res))
	}
}

func TestCtxFirstFixture(t *testing.T) {
	checkFixture(t, "ctxbad", []*Analyzer{
		CtxFirst(CtxConfig{NoSyntheticCtx: []string{"ctx.example"}}),
	})
}

func TestAPIErrLintFixture(t *testing.T) {
	checkFixture(t, "apierrbad", []*Analyzer{
		APIErrLint(APIErrConfig{Packages: []string{"apierr.example"}}),
	})
}

func TestPkgDocFixture(t *testing.T) {
	checkFixture(t, "pkgdocbad", []*Analyzer{
		PkgDoc(PkgDocConfig{
			Figure2Prefixes: []string{"pkgdoc.example/fig"},
			ExamplePrefixes: []string{"pkgdoc.example/examples/"},
		}),
	})
}

func TestDirectiveFixture(t *testing.T) {
	checkFixture(t, "directivebad", []*Analyzer{
		DetLint(DetConfig{Critical: map[string][]string{"directive.example": nil}}),
	})
}

// TestRepoIsClean runs the full default suite over the real module and
// demands zero findings: the repository must always lint clean, with
// every standing exception spelled as an audited waiver.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("Load(module root): %v", err)
	}
	res := Run(pkgs, DefaultSuite())
	for _, d := range res.Diagnostics {
		t.Errorf("finding: %s", d)
	}
	for _, w := range res.Waivers {
		if strings.TrimSpace(w.Reason) == "" {
			t.Errorf("waiver without a reason: %s", w)
		}
	}
}
