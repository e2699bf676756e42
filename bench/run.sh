#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload pairs-large --seed 1 --seconds 27 --trace 0
#
# Everything the build writes (the Go build cache, temporary files and the
# binary) stays under .bench_build/ in that root, and no module is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/bench" && go build -o "$out/instcmp-bench" .) >&2
# The Go runtime returns freed heap pages to the kernel with MADV_DONTNEED by
# default, so a workload whose heap shrinks and regrows page-faults its heap
# in again on every large operation. On a VM whose balloon device reports
# free pages to the host, each of those faults is served by the host, at a
# cost that depends on the host's load. MADV_FREE leaves the pages mapped
# until the kernel needs them, so the timed phases measure the program, not
# the host's page-fault path.
export GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}"
exec "$out/instcmp-bench" "$@"
