#!/usr/bin/env bash
# Fail, listing each one, when a //rowlint:noalloc function (lint
# fixtures aside) never runs under an allocation test: the tests whose
# names match SteadyStateAllocs, which require zero allocations with
# testing.AllocsPerRun. A new allocation test must match
# SteadyStateAllocs, or this script does not run it.
#
#   scripts/noalloc_cover.sh
set -euo pipefail
cd "$(dirname "$0")/.."

marks=$(grep -rn --include='*.go' --exclude-dir=testdata -e '^//rowlint:noalloc' internal cmd)
pkgs=$(cut -d: -f1 <<<"$marks" | xargs -n1 dirname | sort -u | sed 's|^|./|' | paste -sd, -)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go test ./... -run SteadyStateAllocs -coverpkg="$pkgs" -coverprofile="$tmp/cover.out" > "$tmp/test.out" ||
    { cat "$tmp/test.out"; exit 1; }
go tool cover -func="$tmp/cover.out" > "$tmp/func.txt"

mod=$(go list -m)
status=0
while IFS=: read -r file line _; do
    at=$((line + 1)) # the func line under the annotation
    cov=$(awk -v pos="$mod/$file:$at:" 'index($1, pos) == 1 { print $NF }' "$tmp/func.txt")
    if [ "${cov:-0.0%}" = "0.0%" ]; then
        echo "noalloc_cover: $file:$at: $(sed -n "${at}p" "$file" | sed 's/ *{.*//') never runs under a SteadyStateAllocs test"
        status=1
    fi
done <<<"$marks"
exit $status
