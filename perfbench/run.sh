#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it. Run it
# from the repository root, for example:
#
#   bash perfbench/run.sh --workload crawl_job --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the span files of traced runs all stay
# under .bench_build/perfbench in the checkout. The build fails, and so does
# the run, when the repository's own sources are not beside perfbench/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
if [ -z "${PERFBENCH_COMMIT:-}" ] && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD)
	export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
