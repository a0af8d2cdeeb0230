#!/usr/bin/env bash
# Builds dvsimd and the benchmark program from the checkout in the current
# directory, then runs one workload against a freshly started daemon:
#
#   bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# binaries and result records all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dvsimd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/dvsimd and perfbench/ are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/dvsimd" ./cmd/dvsimd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# The commit, or outside a git checkout a digest of the files present.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null) ||
	commit="tree-$(find . -name .bench_build -prune -o -type f -print0 | sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
exec "$out/perfbench" -dvsimd "$out/dvsimd" -commit "$commit" -out "$out/results" "$@"
