#!/usr/bin/env sh
# Prints the two sizes ROADMAP says to push down: non-test, non-blank,
# non-comment Go lines outside bench/ (the count every simplicity PR
# quotes before and after), and how many flags gpad takes; then the line
# counts of the three documents every change edits (the design doc, the
# README and the verify skill). Informational: CI echoes it, nothing
# gates on it. Run from the repo root.
set -eu

lines=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' \
	-not -path './.bench_build/*' -not -path '*/testdata/*' -print0 |
	xargs -0 cat | grep -vE '^\s*(//|$)' | wc -l)
flags=$(grep -cE '^\s*\w+ := flag\.[A-Z][a-zA-Z0-9]*\(' cmd/gpad/main.go)
echo "code lines: $lines"
echo "gpad flags: $flags"
for doc in docs/ARCHITECTURE.md README.md .claude/skills/verify/SKILL.md; do
	echo "doc lines: $(wc -l <"$doc") $doc"
done
