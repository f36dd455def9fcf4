#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload replay-rsnt --seed 1 --seconds 14 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the current directory (Go build cache, binary, scratch recordings, span
# files), so nothing outside the checkout is read or written by the build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off CGO_ENABLED=0

# Provenance: the commit when this is a git checkout, and a digest of the
# Go sources either way.
PERFBENCH_GIT_SHA=none
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	PERFBENCH_GIT_SHA=$(git -C "$root" rev-parse HEAD)
fi
PERFBENCH_SRC_DIGEST=$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_GIT_SHA PERFBENCH_SRC_DIGEST

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
