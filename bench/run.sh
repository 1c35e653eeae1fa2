#!/bin/bash
# Entry point named in BENCHMARK.json. It is `go run ./bench "$@"` with the
# build kept inside the checkout: the Go build cache, the linker's scratch
# space and the binary all live under bench/out/.build/ (bench/.gitignore
# covers bench/out/), so a run reads and writes nothing outside the directory
# it was started in. Run it from the repository root.
set -euo pipefail
build="$PWD/bench/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/go-cache}"
export GOTMPDIR="$build/tmp"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
go build -o "$build/flowgo-bench" ./bench
exec "$build/flowgo-bench" "$@"
