#!/usr/bin/env sh
# Prints the two sizes ROADMAP says to push down: non-test, non-blank,
# non-comment Go lines outside bench/ (the count every simplicity PR
# quotes before and after), with the same count per package, largest
# first, and how many flags gpad takes; then the line
# counts of the three documents every change edits (the design doc, the
# README and the verify skill). Informational: CI echoes it, nothing
# gates on it. Run from the repo root.
set -eu

# One "<lines> <package dir>" row per package, largest first.
per_pkg=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' \
	-not -path './.bench_build/*' -not -path '*/testdata/*' -print0 |
	xargs -0 awk '!/^[[:space:]]*(\/\/|$)/ {
		d = FILENAME; sub(/\/[^\/]*$/, "", d); n[d]++
	} END { for (d in n) print n[d], d }' | sort -k1,1nr -k2)
lines=$(echo "$per_pkg" | awk '{ s += $1 } END { print s }')
flags=$(grep -cE '^\s*\w+ := flag\.[A-Z][a-zA-Z0-9]*\(' cmd/gpad/main.go)
echo "code lines: $lines"
# Named as ROADMAP quotes them: internal/ dropped, the root package "gpa".
echo "$per_pkg" | sed -e 's| \./internal/| |' -e 's| \./| |' -e 's| \.$| gpa|' |
	awk '{ print "  " $2 " " $1 }'
echo "gpad flags: $flags"
for doc in docs/ARCHITECTURE.md README.md .claude/skills/verify/SKILL.md; do
	echo "doc lines: $(wc -l <"$doc") $doc"
done
