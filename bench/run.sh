#!/usr/bin/env bash
# The benchmark's one command. The driver runs, from the root of a checkout,
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# It builds bench/cmd/gbbench from source into .bench_build/ (the first run of
# a checkout compiles; later ones hit the build cache) and runs it. Everything
# the toolchain writes — build cache included — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -C bench -o "$build/gbbench" ./cmd/gbbench
exec "$build/gbbench" "$@"
