#!/usr/bin/env bash
# Tier-1 statement coverage. Runs go test ./... with every package of
# the module instrumented (-coverpkg), so a statement counts as covered
# when any package's tests run it, then prints:
#
#   - a table of statements and coverage per package;
#   - the total outside the excluded code below;
#   - every function outside it that no test runs (0.0%).
#
# Excluded from the total and the list:
#   - cmd/rowperf, the benchmark harness: it times runs rather than
#     checking them, and its own tests cover what it checks;
#   - cmd/rowserve: the chaos tests (internal/serve/chaostest) run the
#     real binary as a subprocess and kill it, and in-process coverage
#     cannot see into a subprocess;
#   - the main functions: each is os.Exit(run(...)), and the tests call
#     run in-process.
#
# It reports and does not gate: a coverage floor rewards tests that run
# code without checking what it does. It exits non-zero only when the
# tests fail.
#
#   scripts/cover.sh             # run the tests, then report
#   scripts/cover.sh cover.out   # report on an existing profile
set -euo pipefail
cd "$(dirname "$0")/.."

mod=$(go list -m)
status=0
if [ $# -gt 0 ]; then
    profile=$1
else
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    profile=$tmp/cover.out
    go test -count=1 -coverpkg=./internal/...,./cmd/... -coverprofile="$profile" ./... >"$tmp/test.out" 2>&1 || status=$?
    if [ "$status" -ne 0 ]; then
        grep -E '^(--- FAIL|FAIL|panic)' "$tmp/test.out" || true
        echo "go test failed (exit $status); the report below is partial"
        echo
    fi
fi

# The line range of every main function, as "file start end".
mains=$(for f in cmd/*/main.go; do
    awk -v f="$mod/$f" '/^func main\(\)/ { s = NR } s && /^}/ { print f, s, NR; exit }' "$f"
done)

excluded='^'"$mod"'/cmd/(rowperf|rowserve)/'

# A block appears once per test binary; it is covered if any ran it.
awk -v mains="$mains" -v excl="$excluded" -v mod="$mod/" '
    BEGIN {
        n = split(mains, m, "\n")
        for (i = 1; i <= n; i++) { split(m[i], f, " "); mfile[f[1]] = f[2]; mend[f[1]] = f[3] }
    }
    NR == 1 { next }
    {
        if (!($1 in stmts)) { stmts[$1] = $2; order[++blocks] = $1 }
        if ($3 > 0) hit[$1] = 1
    }
    END {
        for (i = 1; i <= blocks; i++) {
            b = order[i]; split(b, loc, ":"); file = loc[1]; split(loc[2], pos, "[.,]")
            pkg = file; sub(/\/[^\/]*$/, "", pkg); sub("^" mod, "", pkg)
            total[pkg] += stmts[b]; if (b in hit) cov[pkg] += stmts[b]
            if (file ~ excl) continue
            if ((file in mfile) && pos[1] >= mfile[file] && pos[1] <= mend[file]) continue
            all += stmts[b]; if (b in hit) allcov += stmts[b]
        }
        printf "%-28s %6s %6s\n", "package", "stmts", "cover"
        for (pkg in total) printf "%-28s %6d %5.1f%%\n", pkg, total[pkg], 100 * cov[pkg] / total[pkg] | "sort"
        close("sort")
        printf "\ntotal outside cmd/rowperf, cmd/rowserve and the main functions: %.1f%% (%d of %d statements uncovered)\n",
            100 * allcov / all, all - allcov, all
    }' "$profile"

echo
echo "functions no test runs:"
go tool cover -func="$profile" | awk -v excl="$excluded" '
    $NF == "0.0%" && $1 !~ excl && $1 != "total:" && !($1 ~ /\/main\.go:/ && $2 == "main") { print "  " $1, $2 }'
exit "$status"
