// Package lint is the repo's invariant analyzer suite: a stdlib-only
// static-analysis driver (go/parser + go/types + go/importer, no
// golang.org/x/tools) that mechanizes the contracts the test suite
// otherwise pins at runtime. It sits beside the Figure 2 pipeline
// rather than inside it: every analyzer guards a property the pipeline
// depends on — determinism of the simulator packages (detlint),
// context-first cancellation (ctxfirst), the apierr error taxonomy at
// its origin packages (apierrlint), and the package documentation
// contract (pkgdoc). cmd/gpa-lint wires the suite into CI so a
// violation fails the build before any simulation runs.
//
// Audited exceptions are written in the source as
//
//	//gpa:lint-allow <analyzer> <reason>
//
// on (or attached to) the offending line. The driver suppresses the
// matching diagnostic, counts the waiver, and reports it in the run
// result so every standing exception stays visible; a directive that
// suppresses nothing is itself a diagnostic, so waivers can never go
// stale silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one invariant check. Analyzers are pure functions of the
// loaded packages: they inspect syntax and types and report
// diagnostics, and must not depend on process state (environment,
// clock, iteration order) — the suite lints determinism, so its own
// output is sorted and reproducible.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in
	// gpa:lint-allow directives.
	Name string
	// Doc is a one-line description of the guarded contract.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: a position, the analyzer that produced
// it, and the violated contract.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Waiver is one used gpa:lint-allow directive: an audited exception
// the driver counted instead of failing.
type Waiver struct {
	Analyzer string
	Pos      token.Position
	Reason   string
}

func (w Waiver) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", w.Pos.Filename, w.Pos.Line, w.Analyzer, w.Reason)
}

// Result is the outcome of one driver run.
type Result struct {
	// Diagnostics holds the unsuppressed findings, sorted by position.
	Diagnostics []Diagnostic
	// Waivers holds the directives that suppressed a finding, sorted by
	// position. The driver prints these so every standing exception is
	// visible in CI output.
	Waivers []Waiver
}

// allowPrefix is the directive marker. The comment form is
// //gpa:lint-allow <analyzer> <reason...>, following the compiler's
// //go: directive convention (no space after //).
const allowPrefix = "gpa:lint-allow"

// directive is one parsed gpa:lint-allow comment with the source span
// it covers: the comment's own lines, the line below the comment, and
// the AST node the comment group is attached to (so a directive above
// a declaration covers the whole declaration).
type directive struct {
	analyzer string
	reason   string
	pos      token.Position
	file     string
	fromLine int // first covered line
	toLine   int // last covered line
	used     bool
	bad      string // non-empty: malformed, diagnosed by the driver
}

// covers reports whether the directive suppresses d.
func (dir *directive) covers(d *Diagnostic) bool {
	return dir.bad == "" &&
		dir.analyzer == d.Analyzer &&
		dir.file == d.Pos.Filename &&
		d.Pos.Line >= dir.fromLine && d.Pos.Line <= dir.toLine
}

// parseDirectives extracts every gpa:lint-allow directive in the
// package, with scopes derived from the comment-to-node association.
func parseDirectives(pkg *Package, known map[string]bool) []*directive {
	var dirs []*directive
	for _, f := range pkg.Files {
		// Map each comment group to the node it documents, so a
		// directive above a func or field covers that whole node.
		span := map[*ast.CommentGroup][2]int{}
		cmap := ast.NewCommentMap(pkg.Fset, f, f.Comments)
		for node, groups := range cmap {
			from := pkg.Fset.Position(node.Pos()).Line
			to := pkg.Fset.Position(node.End()).Line
			for _, g := range groups {
				span[g] = [2]int{from, to}
			}
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				text, ok := strings.CutPrefix(c.Text, "//"+allowPrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &directive{pos: pos, file: pos.Filename}
				fields := strings.Fields(text)
				switch {
				case len(fields) == 0:
					d.bad = "missing analyzer name and reason"
				case len(fields) == 1:
					d.bad = fmt.Sprintf("missing reason (want //%s %s <reason>)", allowPrefix, fields[0])
				case !known[fields[0]]:
					d.bad = fmt.Sprintf("unknown analyzer %q", fields[0])
				default:
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				// Own line and the line below always count; widen to the
				// attached node when the comment documents one.
				d.fromLine, d.toLine = pos.Line, pos.Line+1
				if s, ok := span[g]; ok {
					d.fromLine = min(d.fromLine, s[0])
					d.toLine = max(d.toLine, s[1])
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// Run executes every analyzer over every package, applies the
// gpa:lint-allow directives, and returns the surviving diagnostics
// plus the waivers that suppressed the rest. Unused or malformed
// directives are diagnosed by the pseudo-analyzer "directive".
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var raw []Diagnostic
	var dirs []*directive
	for _, pkg := range pkgs {
		dirs = append(dirs, parseDirectives(pkg, known)...)
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, analyzer: a, diags: &raw}
			a.Run(pass)
		}
	}

	res := &Result{}
	for i := range raw {
		suppressed := false
		for _, dir := range dirs {
			if dir.covers(&raw[i]) {
				if !dir.used {
					dir.used = true
					res.Waivers = append(res.Waivers, Waiver{
						Analyzer: dir.analyzer, Pos: dir.pos, Reason: dir.reason,
					})
				}
				suppressed = true
			}
		}
		if !suppressed {
			res.Diagnostics = append(res.Diagnostics, raw[i])
		}
	}
	for _, dir := range dirs {
		switch {
		case dir.bad != "":
			res.Diagnostics = append(res.Diagnostics, Diagnostic{
				Analyzer: "directive", Pos: dir.pos,
				Message: fmt.Sprintf("malformed //%s directive: %s", allowPrefix, dir.bad),
			})
		case !dir.used:
			res.Diagnostics = append(res.Diagnostics, Diagnostic{
				Analyzer: "directive", Pos: dir.pos,
				Message: fmt.Sprintf("unused //%s %s directive (nothing to suppress here; delete it)", allowPrefix, dir.analyzer),
			})
		}
	}

	sortDiags(res.Diagnostics)
	sort.Slice(res.Waivers, func(i, j int) bool {
		a, b := res.Waivers[i].Pos, res.Waivers[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
