#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything it writes stays inside the checkout: the Go build cache,
# temporary files and the binary under .bench_build/, reports and
# traces under benchmark/out/ (both git-ignored).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
(
	cd "$here"
	# The go command keeps its cache, scratch space, module cache and
	# telemetry counters below these; none may land in $HOME or /tmp.
	export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
	go build -o "$build/rpq-benchmark" .
)
cd "$root"
exec "$build/rpq-benchmark" "$@"
