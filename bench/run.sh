#!/usr/bin/env bash
# Builds ptbench from this checkout's sources and runs it with the given
# arguments, from the repository root:
#
#   bash bench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every temporary file stay in the
# build directory inside the checkout: $CARGO_TARGET_DIR if set, else
# .bench_build. No module is downloaded; the build fails (non-zero exit)
# when the repository's own module is not beside bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/ptbench" ./cmd/ptbench)
exec "$out/ptbench" "$@"
