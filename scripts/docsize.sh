#!/usr/bin/env bash
# Fail when DESIGN.md or EXPERIMENTS.md has more bytes at HEAD than at
# the git revision BASE, unless HEAD adds what those documents describe:
# a package or command (a directory under internal/ or cmd/ holding
# non-test Go files) or a figure (a new `func Fig...` in
# internal/experiments). DESIGN.md also fails above 25,000 bytes:
# mechanism detail lives in the doc comment of the package it
# describes. The documents describe the code as it is; history lives
# in CHANGES.md and git.
#
#   scripts/docsize.sh BASE        e.g. scripts/docsize.sh origin/main
set -euo pipefail

base=${1:?usage: scripts/docsize.sh BASE}
cd "$(dirname "$0")/.."

pkgs() {
    git ls-tree -r --name-only "$1" -- internal cmd |
        grep '\.go$' | grep -v -e '_test\.go$' -e '/testdata/' |
        sed 's|/[^/]*$||' | sort -u
}
figs() {
    git grep -h -o '^func Fig[A-Za-z0-9_]*' "$1" -- 'internal/experiments/*.go' | sort -u || true
}

added=$( (comm -13 <(pkgs "$base") <(pkgs HEAD); comm -13 <(figs "$base") <(figs HEAD)) | tr '\n' ' ')

status=0
for doc in DESIGN.md EXPERIMENTS.md; do
    was=$(git cat-file -s "$base:$doc")
    now=$(git cat-file -s "HEAD:$doc")
    echo "docsize: $doc $was -> $now bytes since $base"
    if [ "$now" -gt "$was" ] && [ -z "$added" ]; then
        echo "docsize: $doc grew, and HEAD adds no package, command or figure"
        status=1
    fi
done
if [ "$(git cat-file -s HEAD:DESIGN.md)" -gt 25000 ]; then
    echo "docsize: DESIGN.md is over its 25,000-byte ceiling"
    status=1
fi
if [ -n "$added" ]; then
    echo "docsize: HEAD adds ${added% }, so the documents may grow"
fi
exit $status
