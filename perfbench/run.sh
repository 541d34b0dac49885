#!/usr/bin/env bash
# Builds the benchmark binary from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload attack-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, benchmark binary, daemon
# state, trace files) stays under .bench_build/ in the checkout.
set -eu

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the toolchain's cache, temporary and telemetry files in the checkout,
# and keep it offline.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off GOPROXY=off

commit=none
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo none)
	if [ "$commit" != none ] && [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		commit="$commit+dirty"
	fi
fi

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" --build-dir "$out" "$@"
