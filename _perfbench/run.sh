#!/usr/bin/env bash
# Builds the system under test (cmd/fhd) and the perfbench binary from
# source, then runs one workload:
#
#   bash _perfbench/run.sh --workload replay-backlog --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact stays under
# .bench_build/ in the current directory; the last stdout line is the
# JSON result. Build failures exit non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

# One fixed environment for the build and for every run. The Go caches,
# temporary files and the toolchain's config directory stay under
# .bench_build; processes get at most two CPUs (fewer if the host has
# fewer).
procs=$(nproc)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOWORK=off GOTELEMETRY=off \
	CGO_ENABLED=0 GOGC=100 GOMAXPROCS=$((procs < 2 ? procs : 2)) GODEBUG=

go build -o "$out/bin/fhd" ./cmd/fhd 1>&2
(cd _perfbench && go build -o "$out/bin/perfbench" .) 1>&2

exec "$out/bin/perfbench" -fhd "$out/bin/fhd" -scratch "$out/run" "$@"
