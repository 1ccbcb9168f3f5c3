#!/usr/bin/env bash
# Builds kexserved and the perfbench load generator from the checkout in
# the current directory, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload write-small --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -o "$out/kexserved" ./cmd/kexserved
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/kexserved" -work "$out/run" "$@"
