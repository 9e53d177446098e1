#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# root of the repository:
#
#   bash e2ebench/run.sh --workload lookup --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root; the InfoSleuth module (go.mod, internal/) is not here" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

(cd "$root/e2ebench" && go build -trimpath -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
