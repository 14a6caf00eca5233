#!/usr/bin/env bash
# Builds the serving daemons and the benchmark from this checkout's source,
# then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload profile-sweep --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache, the go command's own config and
# telemetry files, spans and scratch files. Compiling is not part of any
# measured time.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/" gpudvfs/cmd/dvfs-served gpudvfs/cmd/dvfs-router .) >&2

commit=unknown
if [ -e "$root/.git" ]; then
  commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$out/bin/perfbench" -bin "$out/bin" -commit "$commit" "$@"
