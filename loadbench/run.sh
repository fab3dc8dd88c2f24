#!/usr/bin/env bash
# Builds loadbench from the source in this checkout and runs it with the
# given arguments, e.g.
#   bash loadbench/run.sh --workload oltp_durable --seed 1 --seconds 20 --trace 0
# The Go build cache, the go command's config and telemetry files,
# temporary build files and the binary stay under .bench_build/ in the
# checkout; data directories go to .bench_work/ and span files to
# .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd loadbench && go build -o "$build/loadbench" .)
exec "$build/loadbench" "$@"
