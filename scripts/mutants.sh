#!/usr/bin/env bash
# Run the mutant kill matrix: apply each one-fault source mutant in
# scripts/mutants/*.diff (a one-line description, then a git diff) to a
# temporary git worktree of HEAD and run `go test ./...` there. Prints
# one line a mutant: its name and every top-level test that failed, as
# "package Test" pairs (package paths without the module's), or
# SURVIVED. A gate that holds a mutant's only kill shows as the one
# pair on its line. Exits 1 if any mutant survives, fails to apply or
# fails to build, since a mutant that does not build kills nothing.
#
#   scripts/mutants.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
tree=$tmp/tree
trap 'git worktree remove --force "$tree" 2>/dev/null || true; rm -rf "$tmp"; git worktree prune' EXIT
git worktree add --quiet --detach "$tree" HEAD

mod=$(go list -m)
status=0
for diff in scripts/mutants/*.diff; do
    name=$(basename "$diff" .diff)
    git -C "$tree" reset --quiet --hard
    if ! git -C "$tree" apply "$PWD/$diff"; then
        echo "$name: does not apply"
        status=1
        continue
    fi
    if (cd "$tree" && go test ./... >"$tmp/test.out" 2>&1); then
        echo "$name: SURVIVED"
        status=1
        continue
    fi
    # Every failing top-level test with its package; a package that
    # fails without one (a build failure) is reported as such.
    killer=$(awk -v mod="$mod/" '
        /^--- FAIL: / { test[++n] = $3 }
        /^FAIL\t/ {
            if (n == 0) test[++n] = ($3 == "[build" ? "[build failed]" : "(package)")
            pkg = index($2, mod) == 1 ? substr($2, length(mod) + 1) : $2
            for (i = 1; i <= n; i++) out = out (out == "" ? "" : ", ") pkg " " test[i]
            n = 0
        }
        END { print out }' "$tmp/test.out")
    echo "$name: killed by $killer"
    case $killer in *"[build failed]"*) status=1 ;; esac
done
exit $status
