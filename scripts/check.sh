#!/bin/sh
# Tier-1 checks: formatting, vet, build, full test suite.
# Run from the repository root (or via `make check`).
#
# `check.sh fast` (`make check-fast`) stops after the allocation pins:
# formatting, vet, simlint, build, the tests, the examples and the pins.
# Plain `check.sh` is the full gate and runs every stage.
set -eu
cd "$(dirname "$0")/.."

tier=${1:-full}
case $tier in
fast | full) ;;
*)
	echo "usage: $0 [fast]" >&2
	exit 2
	;;
esac

# stage prints the elapsed seconds of the stage before it, then the new
# stage's header; the EXIT trap reports the last stage, failed or not.
stage_name=
stage_start=
stage_end() {
	if [ -n "$stage_name" ]; then
		echo "-- $stage_name took $(( $(date +%s) - stage_start ))s"
	fi
}
stage() {
	stage_end
	stage_name=$1
	stage_start=$(date +%s)
	echo "== $1 =="
}
trap stage_end EXIT

stage "gofmt"
# testdata holds simlint's seeded-violation fixtures; they are kept
# formatted but deliberately not gated, like go vet's ./... skip.
unformatted=$(gofmt -l . | grep -v 'testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

stage "go vet"
go vet ./...

stage "simlint"
# The sweep (every package, syntactic + flow-sensitive rules) fails on
# any unsuppressed finding. Budget: under 30 s wall clock — the shared
# source importer loads the stdlib once per process, so the whole-tree
# sweep costs about what one package used to (see internal/analysis
# load.go); a blown budget means a summary memo stopped caching.
lint_start=$(date +%s)
go run ./cmd/simlint
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "simlint took ${lint_elapsed}s (budget 30s)"
if [ "$lint_elapsed" -gt 30 ]; then
	echo "simlint exceeded the 30s budget" >&2
	exit 1
fi

stage "go build"
go build ./...

stage "go test"
go test ./...

stage "examples (each must exit 0)"
# The examples are the README's runnable demos (the §3.5.1 failover run
# among them); no test imports them, so a broken one only shows here.
for ex in examples/*/; do
	if ! go run "./$ex" >/dev/null; then
		echo "example $ex failed" >&2
		exit 1
	fi
done

stage "allocation pins (GOMAXPROCS=1) + shared wire pool (-race)"
# The steady-state message path must not allocate: AllocsPerRun pins on
# Proc.Sleep, Cond hand-off, wire Get/Put, a mesh Node.Send, a cross-pod
# fat-tree send, the unexpected-message match, TCP and SCTP SACK
# decoding, and core ping-pongs (clean and 2% loss) and an Allreduce per
# backend (DESIGN.md §4.1). The wire pool is the one pool shared by concurrent
# kernels, so its ownership test runs under -race.
GOMAXPROCS=1 go test -count=1 -run 'AllocFree|AllocsPerMessage|NoAllocSteadyState' \
	./internal/sim/ ./internal/wire/ ./internal/netsim/ ./internal/netsim/topo/ \
	./internal/core/ ./internal/mpi/ ./internal/tcp/ ./internal/sctp/
go test -race -count=10 ./internal/wire/

if [ "$tier" = fast ]; then
	stage_end
	trap - EXIT
	echo "tier-1 fast: OK (run without 'fast' for the full gate)"
	exit 0
fi

stage "go test -race (kernel + cluster)"
# Event callbacks run on whichever process goroutine holds the execution
# token, so the token hand-offs are what order kernel state between
# goroutines; these packages drive every hand-off edge.
go test -race ./internal/sim/ ./internal/core/

stage "go test -race (sweep runner)"
go test -race ./internal/bench/...

stage "go test -race (recovery conformance + readiness engine)"
go test -race -run 'TestConformance|TestDrive|TestEventCost' ./internal/mpi/rpi/

stage "rank-scaling bench smoke"
go test -run TestRankScalingSubLinear ./internal/bench/

stage "table producers (make paper: cmd/paper -exp all -quick)"
make paper >/dev/null

stage "fuzz smoke (chunk codec + DATA and I-DATA reassembly)"
# Short coverage-guided runs of the SCTP fuzz targets, starting from
# the checked-in seed corpora under internal/sctp/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzChunkCodec$' -fuzztime 10s ./internal/sctp/
go test -run '^$' -fuzz '^FuzzIDataReassembly$' -fuzztime 10s ./internal/sctp/
go test -run '^$' -fuzz '^FuzzDataReassembly$' -fuzztime 10s ./internal/sctp/

stage "coverage floor (internal/sctp)"
cov=$(go test -cover ./internal/sctp/ | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$cov" ]; then
	echo "could not parse internal/sctp coverage" >&2
	exit 1
fi
awk -v c="$cov" 'BEGIN {
	floor = 78.0
	if (c + 0 < floor) {
		printf "internal/sctp coverage %.1f%% is below the %.0f%% floor\n", c, floor
		exit 1
	}
	printf "internal/sctp coverage %.1f%% (floor %.0f%%)\n", c, floor
}'

stage "coverage floor (internal/analysis)"
cov=$(go test -cover ./internal/analysis/ | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$cov" ]; then
	echo "could not parse internal/analysis coverage" >&2
	exit 1
fi
awk -v c="$cov" 'BEGIN {
	floor = 80.0
	if (c + 0 < floor) {
		printf "internal/analysis coverage %.1f%% is below the %.0f%% floor\n", c, floor
		exit 1
	}
	printf "internal/analysis coverage %.1f%% (floor %.0f%%)\n", c, floor
}'

stage "go test -race (chaos harness)"
go test -race ./internal/chaos/...

stage "chaos corpus (make chaos: corpora, 256-rank fat-tree, mid-broadcast kills)"
make chaos

stage "reach (functions no product run reaches are listed in scripts/reach.txt)"
# Cover builds of cmd/paper, benchmark, cmd/chaos and the examples run
# their make/check lines, and the tests run once more with -coverpkg; a
# test-only or unreached function missing from reach.txt fails here.
./scripts/reach.sh -check

stage "1024-rank scale smoke (fat-tree allreduce)"
SCALE_SMOKE=1 go test -run TestScaleSmoke1024 -timeout 10m ./internal/bench/

stage_end
trap - EXIT
echo "tier-1: OK"
