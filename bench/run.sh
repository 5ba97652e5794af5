#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments; this
# is BENCHMARK.json's command. Everything the Go toolchain writes (build
# cache, temporary files, its own config and telemetry) is kept under
# .bench_build/ in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

# bench/ is a module of its own that replaces hierdrl with the checkout around
# it: without the program's source the build fails and nothing is printed.
(cd "$here" && go build -o "$build/hierdrl-bench" .)

cd "$root"
exec "$build/hierdrl-bench" "$@"
