#!/usr/bin/env bash
# Builds the decision-service benchmark from this checkout's sources and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload wire --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# build's temporary files go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout; the Go
# toolchain must be on PATH. Without the repository's own sources beside
# perfbench/ the build fails and no result is printed.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
