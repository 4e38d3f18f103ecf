#!/usr/bin/env bash
# Builds the benchmark driver and scanpowerd from source, then runs the
# driver with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh all --seed 1 --seconds 30
#   bash perfbench/run.sh compare parent.out change.out
#   bash perfbench/run.sh selftest
#
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; nothing is written outside it.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/scanpowerd" repro/cmd/scanpowerd
) >&2

# A subcommand (all, compare, selftest, golden) comes first; flags follow
# it. Only the modes that run workloads take the daemon binary.
sub=()
if [[ $# -gt 0 && "$1" != -* ]]; then
	sub=("$1")
	shift
fi
paths=(-root "$root")
case "${sub[0]:-}" in
compare | golden) ;;
*) paths+=(-daemon "$out/scanpowerd") ;;
esac
exec "$out/perfbench" "${sub[@]}" "${paths[@]}" "$@"
