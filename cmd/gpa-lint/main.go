// Command gpa-lint runs the repo's invariant analyzer suite
// (internal/lint) over the module: detlint (no clock, randomness,
// environment, or map-order leaks in determinism-critical packages),
// ctxfirst (context-first cancellation), apierrlint (taxonomy-tagged
// errors at origin), and pkgdoc (package docs state their Figure 2
// role). It is the CI gate that fails the build the moment a
// determinism contract is violated, before any simulation runs.
//
// Usage:
//
//	gpa-lint [-C dir] [packages]
//
// with go-style package patterns (default ./...). Audited exceptions
// use //gpa:lint-allow <analyzer> <reason> on the offending line;
// every waiver is counted and printed so standing exceptions stay
// visible. Exit status is 1 when any finding survives, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gpa/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "module directory to lint")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gpa-lint [-C dir] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.DefaultSuite() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	pkgs, err := lint.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpa-lint: %v\n", err)
		os.Exit(2)
	}
	res := lint.Run(pkgs, lint.DefaultSuite())

	cwd, _ := os.Getwd()
	rel := func(path string) string {
		if cwd == "" {
			return path
		}
		if r, err := filepath.Rel(cwd, path); err == nil && len(r) < len(path) {
			return r
		}
		return path
	}

	for _, d := range res.Diagnostics {
		fmt.Printf("%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	fmt.Printf("gpa-lint: %d finding(s), %d waiver(s) across %d package(s)\n",
		len(res.Diagnostics), len(res.Waivers), len(pkgs))
	for _, w := range res.Waivers {
		fmt.Printf("  waiver %s:%d: %s: %s\n", rel(w.Pos.Filename), w.Pos.Line, w.Analyzer, w.Reason)
	}
	if len(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}
