#!/usr/bin/env bash
# Builds the fetbench module and runs it from the root of a checkout:
#
#   bash fetbench/run.sh --workload sweep-complete --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module path and toolchain state stay under
# .bench_build/ (or $CARGO_TARGET_DIR when set) in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/fetbench/go.mod" ]]; then
	echo "fetbench: $root is not a passivespread checkout (no go.mod)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/home"

(
	cd "$root/fetbench"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
		GOTELEMETRY=off GOWORK=off CGO_ENABLED=0 \
		go build -trimpath -o "$build/fetbench" .
) >&2

exec "$build/fetbench" -root "$root" "$@"
