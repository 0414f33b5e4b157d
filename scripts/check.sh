#!/bin/sh
# Tier-1 checks: formatting, vet, build, full test suite.
# Run from the repository root (or via `make check`).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
# testdata holds simlint's seeded-violation fixtures; they are kept
# formatted but deliberately not gated, like go vet's ./... skip.
unformatted=$(gofmt -l . | grep -v 'testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== simlint =="
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

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== examples (each must exit 0) =="
# The examples are the README's runnable demos (the §3.5.1 failover run
# among them); no test imports them, so a broken one only shows here.
for ex in examples/*/; do
	if ! go run "./$ex" >/dev/null; then
		echo "example $ex failed" >&2
		exit 1
	fi
done

echo "== allocation pins (GOMAXPROCS=1) + shared wire pool (-race) =="
# The steady-state message path must not allocate: AllocsPerRun pins on
# Proc.Sleep, Cond hand-off, wire Get/Put, a mesh Node.Send, the
# unexpected-message match, TCP and SCTP SACK decoding, and core
# ping-pongs (clean and 2% loss) and an Allreduce per backend
# (DESIGN.md §4.1). The wire pool is the one pool shared by concurrent
# kernels, so its ownership test runs under -race.
pins_start=$(date +%s)
GOMAXPROCS=1 go test -count=1 -run 'AllocFree|AllocsPerMessage|NoAllocSteadyState' \
	./internal/sim/ ./internal/wire/ ./internal/netsim/ ./internal/core/ \
	./internal/mpi/ ./internal/tcp/ ./internal/sctp/
go test -race -count=10 ./internal/wire/
echo "allocation pins + wire race took $(( $(date +%s) - pins_start ))s"

echo "== go test -race (kernel + cluster) =="
# Event callbacks run on whichever process goroutine holds the execution
# token, so the token hand-offs are what order kernel state between
# goroutines; these packages drive every hand-off edge.
race_start=$(date +%s)
go test -race ./internal/sim/ ./internal/core/
echo "kernel + cluster race took $(( $(date +%s) - race_start ))s"

echo "== go test -race (sweep runner) =="
go test -race ./internal/bench/...

echo "== go test -race (recovery conformance + readiness engine) =="
go test -race -run 'TestConformance|TestDrive|TestEventCost' ./internal/mpi/rpi/

echo "== rank-scaling bench smoke =="
go test -run TestRankScalingSubLinear ./internal/bench/

echo "== table producers (make paper: cmd/paper -exp all -quick) =="
paper_start=$(date +%s)
make paper >/dev/null
echo "make paper took $(( $(date +%s) - paper_start ))s"

echo "== fuzz smoke (chunk codec + interleaved reassembly) =="
# Short coverage-guided runs of the I-DATA fuzz targets, starting from
# the checked-in seed corpora under internal/sctp/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzChunkCodec$' -fuzztime 10s ./internal/sctp/
go test -run '^$' -fuzz '^FuzzIDataReassembly$' -fuzztime 10s ./internal/sctp/

echo "== coverage floor (internal/sctp) =="
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

echo "== coverage floor (internal/analysis) =="
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

echo "== go test -race (chaos harness) =="
go test -race ./internal/chaos/...

echo "== chaos corpus (make chaos: corpora, 256-rank fat-tree, mid-broadcast kills) =="
make chaos

echo "== 1024-rank scale smoke (fat-tree allreduce) =="
SCALE_SMOKE=1 go test -run TestScaleSmoke1024 -timeout 10m ./internal/bench/

echo "tier-1: OK"
