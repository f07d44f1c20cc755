#!/usr/bin/env sh
# Fails when a test selector in the CI workflow selects nothing. For
# every `go test` line of .github/workflows/ci.yml, each `|` alternative
# of its -run, -fuzz and -bench regexes must match at least one name that
# `go test -list` reports for the line's packages; a renamed or deleted
# test would otherwise leave a CI step that passes by running nothing.
# -run=NONE and -run '^$' select nothing on purpose and are skipped.
# Run from the repo root.
set -eu
set -f # regexes are words here, never globs

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

grep -E '^[[:space:]]*go test ' .github/workflows/ci.yml | tr -d "'\"" | {
	status=0
	checked=0
	while read -r line; do
		sels= pkgs= want=
		for tok in $line; do
			if [ -n "$want" ]; then
				sels="$sels $tok"
				want=
				continue
			fi
			case $tok in
			-run | -fuzz | -bench) want=1 ;;
			-run=* | -fuzz=* | -bench=*) sels="$sels ${tok#*=}" ;;
			. | ./*) pkgs="$pkgs $tok" ;;
			esac
		done
		[ -n "$sels" ] || continue
		names="$tmp/$(printf '%s' "$pkgs" | cksum | cut -d' ' -f1)"
		if [ ! -f "$names" ]; then
			# shellcheck disable=SC2086 # one word per package
			go test -list . $pkgs | grep -E '^(Test|Benchmark|Fuzz|Example)' >"$names" || true
		fi
		for sel in $sels; do
			case $sel in NONE | '^$') continue ;; esac
			IFS='|'
			for alt in $sel; do
				checked=$((checked + 1))
				if ! grep -Eq -- "$alt" "$names"; then
					echo "ci.yml: '$alt' (of '$sel') selects nothing in$pkgs" >&2
					status=1
				fi
			done
			unset IFS
		done
	done
	echo "ci selectors: $checked alternatives checked"
	exit $status
}
