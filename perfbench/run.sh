#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under the build directory: $CARGO_TARGET_DIR when set,
# .bench_build otherwise. The build fails, and the script exits non-zero,
# when the repository's Go module is not beside this directory.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
build="$build/perfbench"
mkdir -p "$build/cache" "$build/tmp" "$build/home"

export GOCACHE="$build/cache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/home/go"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
