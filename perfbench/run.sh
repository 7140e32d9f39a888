#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload census-binary --seed 1 --seconds 50 --trace 0
#
# The build cache, the binary and the reports stay under .bench_build in the
# working directory; nothing is fetched over the network.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
mkdir -p "${GOCACHE}" "${GOMODCACHE}" "${GOPATH}" "${GOTMPDIR}"

bin="${build}/perfbench"
# Version-control stamping needs a git checkout; without one the commit is
# reported as unknown.
if ! (cd "${root}/perfbench" && go build -o "${bin}" .) >&2; then
	(cd "${root}/perfbench" && go build -buildvcs=false -o "${bin}" .) >&2
fi
exec "${bin}" "$@"
