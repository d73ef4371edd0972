#!/usr/bin/env bash
# Builds the whole-network benchmark from the source tree it sits in
# and runs it with the given arguments, from the repository root:
#
#   bash benchmark/run.sh --workload resnet-cnn --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/gomod"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOMODCACHE="${out}/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C "${root}/benchmark" build -o "${out}/albireo-bench" . >&2
exec "${out}/albireo-bench" "$@"
