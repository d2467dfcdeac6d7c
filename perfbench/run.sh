#!/usr/bin/env bash
# Builds the GroupTravel benchmark and the system under test from this
# checkout, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/server" ]; then
	echo "perfbench: run from the repository root; the GroupTravel sources are not here" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/gtnode" ./node) >&2
exec "$out/bin/perfbench" "$@"
