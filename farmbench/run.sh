#!/usr/bin/env bash
# Builds the farm benchmark from the sources of the checkout it sits in
# and runs it with the given arguments. Everything the build and the run
# write goes under .bench_build/ at the checkout root.
#
#   bash farmbench/run.sh --workload farm-small --seed 1 --seconds 24 --trace 0
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/home"

# Keep the toolchain offline and its caches, temp files and settings
# inside the checkout.
HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	go -C "$root/farmbench" build -o "$out/farmbench" .

cd "$root"
exec "$out/farmbench" "$@"
