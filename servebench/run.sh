#!/usr/bin/env bash
# Builds the secmetricd serving benchmark from the sources of the checkout
# it sits in, then runs it with the given arguments. Run it from the
# repository root:
#
#   bash servebench/run.sh --workload score_cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the repository root (compiler cache, binary, history databases, span
# dumps), so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

# The Go tool's cache, module path, temporary files and per-user config
# (including its telemetry counters) all stay under .bench_build/.
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

tmp="$out/servebench.$$"
(cd "$here" && go build -o "$tmp" .)
mv -f "$tmp" "$out/servebench"
exec "$out/servebench" "$@"
