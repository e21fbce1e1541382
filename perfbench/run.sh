#!/usr/bin/env bash
# Builds the benchmark and the optik-server it drives from the sources of
# this checkout, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload wire-pipe64 --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binaries,
# span files) goes under .bench_build in the checkout, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod or perfbench/go.mod not found)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config" "$out/bin"

# Build offline with the installed toolchain, and keep the Go caches,
# telemetry and temporary files inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# go build is content-addressed, so the server always matches the
# sources being measured; an unchanged tree rebuilds from the cache.
(cd perfbench && go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/optik-server" github.com/optik-go/optik/cmd/optik-server)

exec "$out/bin/perfbench" -server "$out/bin/optik-server" -out "$out" "$@"
