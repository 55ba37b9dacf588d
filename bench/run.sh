#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload service --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare a1.json a2.json -- b1.json b2.json
#
# Every build artefact, the Go build cache and the runs' scratch data stay in
# .bench_build/ under the current directory; the toolchain is used offline.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local GOTELEMETRY=off
(cd bench && go build -o "$out/qisim-bench" .)

# The wall clock at exec is the start of the run's set-up time.
BENCH_T0_NS=$(date +%s%N) TMPDIR="$out/tmp" exec "$out/qisim-bench" "$@"
