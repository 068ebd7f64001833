#!/bin/sh
# Fast pre-commit gate: build the module, then rowlint only the
# packages with files modified since the last commit (staged, unstaged
# and untracked). The full-module pass stays in CI; this keeps the
# edit loop under a few seconds.
#
# Install:  ln -s ../../scripts/precommit.sh .git/hooks/pre-commit
# Run everything instead:  scripts/precommit.sh -all
set -eu

cd "$(dirname "$0")/.."

go build ./...

if [ "${1:-}" = "-all" ]; then
    exec go run ./cmd/rowlint ./...
fi

exec go run ./cmd/rowlint -changed ./...
