#!/usr/bin/env bash
# check.sh - the tier-1 verification gate, with teeth.
#
#   build      the whole module compiles
#   vet        stdlib static analysis
#   gofmt      every Go file is gofmt-clean (gofmt -l prints nothing);
#              gofmt rewrites "//hot:" markers to "// hot:", which the
#              alloc proof accepts too
#   no FMA     arm64 builds of the cmd/ binaries have no fused
#              multiply-add (FMADDD, FMSUBD, FNMADDD, FNMSUBD) in an
#              internal/core function they link (code inlined into
#              another package's function is not checked): the Go
#              spec lets a compiler fuse x*y + z, an explicit
#              float64(x*y) forbids it, and a fused product would move
#              the core's bits off amd64's. A cross build and go tool
#              objdump, no emulator
#   race test  the full suite under the race detector (the Conv
#              lane bit-identity tests run here)
#   lanes      the core goldens, lane, shard, row-plan, crosstalk
#              fold, activity and datapath (Accumulate) tests at
#              -cpu 1,2,4: the one-lane loop, and more lanes than the
#              race step's default GOMAXPROCS
#   fuzz       FuzzReplayRequest for 10 s: replay answers any journal
#              admit payload and shard window with a result or an
#              error, never a panic; FuzzRecordRoundTrip for 10 s:
#              every journal record decodes back to its canonical bytes;
#              FuzzConvMatchesPerMAC for 10 s: tensor.Conv equals the
#              per-MAC Algorithm 1 loop bit for bit on any geometry
#              (stride, pad, groups, depthwise, NaN/Inf weights)
#   results    albireo-figures -json must reproduce the committed
#              RESULTS.json byte for byte (the paper's numbers on
#              linux/amd64); the diff prints which numbers moved.
#              After an intended change, re-record with
#              go run ./cmd/albireo-figures -json > RESULTS.json
#   benchmark  the whole-network benchmark's own package tests (a
#              reduced run of every workload plus the BENCHMARK.json
#              catalogue check); benchmark/ is a nested module, so the
#              root go test ./... does not reach it
#   lint       albireo-lint: the type-aware module rules
#              (hotpath-alloc-proof, lock-order,
#              map-iteration-determinism, unreachable) plus determinism,
#              obs-determinism, unit-safety, float-equality,
#              exit-hygiene, goroutine-hygiene (see README.md); the
#              JSON report lands in lint.out, archived by CI
#   bench      one-iteration smoke over every benchmark (catches bench
#              bit-rot; output lands in bench.out, archived by CI)
#   alloc gate the hot-path benchmarks at a fixed iteration count,
#              parsed into BENCH_core.json (archived by CI) and checked
#              against the committed bench_baseline.json: the build
#              fails if any hot benchmark's allocs/op regresses
#   serve gate open-loop tail-latency sweep (cmd/albireo-loadgen) in
#              virtual time, parsed into BENCH_serve.json (archived by
#              CI) and checked against the committed
#              bench_serve_baseline.json: the build fails if any
#              (pool, rate) point's p99 regresses
#   loadgen selftest
#              the same harness run twice from a fixed seed must emit
#              byte-identical artifacts (the determinism the serve
#              gate stands on)
#   fault demo smoke-run of the detect -> quarantine -> remap
#              walkthrough (examples/faulttolerance)
#   fleet      load-generator sweep through a 2-chip fleet with a
#              detuned worker serving degraded (metrics in fleet.out,
#              archived by CI); fails if fleet.out has an
#              albireo_sim_, albireo_sram_ or albireo_cache_ series
#   shard      the same sweep with every layer sharded across both
#              chips, journaled and replayed bit-for-bit (log in
#              shard.out, archived by CI)
#   health     per-worker BIST scan of the default pool (report lands
#              in health.out, archived by CI)
#   journal    record a seeded sweep into a hash-chained journal, then
#              albireo-replay verifies the chain and re-executes the
#              history bit-for-bit (log in journal.out, archived by CI)
#
# The journals are recorded into a fresh temporary directory, removed
# on exit, so concurrent runs in one checkout never share a chain.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")"
jdir="$(mktemp -d)"
trap 'rm -rf "${jdir}"' EXIT

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "${unformatted}" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "${unformatted}" >&2
	exit 1
fi

echo "==> no fused multiply-add in internal/core (arm64 builds of every command)"
mkdir "${jdir}/arm64"
GOARCH=arm64 go build -o "${jdir}/arm64/" ./cmd/...
for bin in "${jdir}"/arm64/*; do
	go tool objdump -s '^albireo/internal/core\.' "${bin}"
done >"${jdir}/core-arm64.asm"
if ! grep -q '^TEXT albireo/internal/core\.' "${jdir}/core-arm64.asm"; then
	echo "no internal/core function in the arm64 disassembly" >&2
	exit 1
fi
if grep -E '\b(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b' "${jdir}/core-arm64.asm"; then
	echo "fused multiply-add in internal/core: write the product as float64(x*y)" >&2
	exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> kernel lanes at -cpu 1,2,4 (goldens, lane, shard, row-plan, fold, activity and datapath tests)"
go test -count=1 -cpu 1,2,4 -run 'Golden|Lane|Shard|RowViews|RowPlan|Fold|Activity|Accumulate' ./internal/core

echo "==> replay fuzz (FuzzReplayRequest, 10 s)"
go test -run '^$' -fuzz FuzzReplayRequest -fuzztime 10s ./internal/fleet

echo "==> journal codec fuzz (FuzzRecordRoundTrip, 10 s)"
go test -run '^$' -fuzz FuzzRecordRoundTrip -fuzztime 10s ./internal/journal

echo "==> exact conv fuzz (FuzzConvMatchesPerMAC, 10 s)"
go test -run '^$' -fuzz FuzzConvMatchesPerMAC -fuzztime 10s ./internal/tensor

echo "==> results gate (albireo-figures -json vs committed RESULTS.json)"
go run ./cmd/albireo-figures -json | diff -u RESULTS.json -

echo "==> go -C benchmark test ./..."
go -C benchmark test ./...

echo "==> albireo-lint ./... (JSON report in lint.out)"
go run ./cmd/albireo-lint -json lint.out ./...

echo "==> bench smoke (1 iteration, output in bench.out)"
go test -bench=. -benchtime=1x -run='^$' ./... | tee bench.out

echo "==> hot-path alloc gate (output in BENCH_core.json)"
# Fixed -benchtime keeps allocs/op deterministic: the one-time weight
# program compile amortizes over exactly 50 iterations, so the gate
# compares like against like. ns/op is reported but never gated.
go test -run '^$' -bench '^BenchmarkFunctional' -benchmem -benchtime 50x . |
	go run ./cmd/albireo-bench -json BENCH_core.json -baseline bench_baseline.json

echo "==> serve tail-latency gate (output in BENCH_serve.json)"
# Virtual-time sweep: the artifact is a pure function of the flags and
# seed, so p99 can be gated as strictly as allocs/op.
go run ./cmd/albireo-loadgen -json BENCH_serve.json -baseline bench_serve_baseline.json

echo "==> loadgen determinism selftest"
go run ./cmd/albireo-loadgen -selftest

echo "==> fault-management demo smoke (detect -> quarantine -> remap)"
go run ./examples/faulttolerance

echo "==> fleet serve smoke (degraded 2-chip pool, output in fleet.out)"
go run ./cmd/albireo-serve -addr "" -sweeps 1 -sweep-batch 1 -size 8 -pool 2 -detune "0,0,4,2,0.4" | tee fleet.out
# Metrics describe only what was served: no series from a dataflow
# simulation of a network the pool never ran.
if grep -E '^albireo_(sim|sram|cache)_' fleet.out; then
	echo "fleet.out carries albireo_sim_/albireo_sram_/albireo_cache_ series" >&2
	exit 1
fi

echo "==> sharded fleet smoke (kernel-group fan-out, journaled + replayed, output in shard.out)"
# Every layer fans out across both chips and merges; the replay proves
# the sharded serving history is bit-exact end to end.
go run ./cmd/albireo-serve -addr "" -sweeps 1 -sweep-batch 1 -size 8 -pool 2 \
	-shard -journal "${jdir}/shard" | tee shard.out
go run ./cmd/albireo-replay -journal "${jdir}/shard" | tee -a shard.out

echo "==> BIST health report (output in health.out)"
go run ./cmd/albireo-serve -addr "" -sweeps 0 -bist | tee health.out

echo "==> journal record/verify/replay gate (output in journal.out)"
# Record a seeded degraded-pool sweep, then prove the chain verifies
# and the whole serving history replays bit-for-bit on a pool rebuilt
# from nothing but the journal header.
go run ./cmd/albireo-serve -addr "" -sweeps 1 -sweep-batch 1 -size 8 -pool 2 \
	-detune "0,0,4,2,0.4" -journal "${jdir}/journal" | tee journal.out
go run ./cmd/albireo-replay -journal "${jdir}/journal" -verify | tee -a journal.out
go run ./cmd/albireo-replay -journal "${jdir}/journal" | tee -a journal.out

echo "check.sh: all gates passed"
