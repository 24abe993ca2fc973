#!/usr/bin/env bash
# Non-test Go line counts (wc -l over every *.go file in the directory
# that is not a _test.go file) for the serving packages and each
# command, so the before/after counts in CHANGES.md come from one
# command:
#
#   bash scripts/loc.sh
#
# Run it in a checkout of each commit to compare two trees.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() {
	find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

core=0
for d in internal/serve internal/cluster internal/combine internal/binwire; do
	n=$(lines "$d")
	printf '%-22s %6d\n' "$d" "$n"
	if [ "$d" != internal/binwire ]; then
		core=$((core + n))
	fi
done
printf '%-22s %6d\n' "serve+cluster+combine" "$core"
for d in cmd/*/; do
	d=${d%/}
	printf '%-22s %6d\n' "$d" "$(lines "$d")"
done
