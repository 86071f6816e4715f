#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-link --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, temporary files, binary)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a bufqos checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
bin="$build/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
