GO ?= go

.PHONY: check check-fast fmt vet lint build test bench paper chaos reach

# Tier-1 gate: formatting, vet, build, full test suite.
check:
	./scripts/check.sh

# The fast tier: every stage up to and including the allocation pins.
check-fast:
	./scripts/check.sh fast

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Repository-specific static analysis (internal/analysis): the
# syntactic rules (nopreempt, seqnum, maporder, sentinel) plus the
# flow-sensitive rules (reflease, epochguard, probepure, timeflow).
# Exits non-zero on any finding; suppress with a justified
# `//simlint:allow <rule> <why>` comment. LINT_JSON=1 switches the
# output to JSON Lines (schema in README).
lint:
ifeq ($(LINT_JSON),1)
	$(GO) run ./cmd/simlint -json
else
	$(GO) run ./cmd/simlint
endif

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The wall-clock harness: every workload of BENCHMARK.json, end to end
# and layer by layer (see benchmark/README.md).
bench:
	$(GO) run ./benchmark

# Every virtual-time table at -quick scale (cells up to 128 ranks).
paper:
	$(GO) run ./cmd/paper -exp all -quick

# Fault-injection gate: a fixed 50-seed schedule corpus per backend with
# the invariant oracles armed, plus a 25-seed multihomed corpus, a
# 25-seed session-kill corpus (AssocKill-only schedules; the recovery
# layer must complete every job), and one 256-rank fat-tree seed per
# backend so faults also land on shared switch ports at scale. Fails
# (exit 1) with a shrunk repro if any run violates an invariant.
chaos:
	$(GO) run ./cmd/chaos -rpi all -seeds 50
	$(GO) run ./cmd/chaos -rpi all -seeds 25 -multihome
	$(GO) run ./cmd/chaos -rpi all -seeds 25 -kill
	$(GO) run ./cmd/chaos -rpi all -seeds 1 -procs 256 -topo fattree -rounds 6
	$(GO) run ./cmd/chaos -rpi sctp -seed 1 -events 6 -horizon 50ms -kill -procs 256 -topo fattree -collective bcast -rounds 3 -msgsize 65536
	$(GO) run ./cmd/chaos -rpi sctp1to1 -seed 8 -events 6 -horizon 50ms -kill -procs 256 -topo fattree -collective bcast -rounds 3 -msgsize 65536
	$(GO) run ./cmd/chaos -rpi tcp -seed 3 -events 6 -horizon 50ms -kill -procs 256 -topo fattree -collective bcast -rounds 3 -msgsize 65536

# Dead-code gate: every function in internal/ (internal/analysis
# excepted) that no product run — make paper, benchmark -check, the
# examples, make chaos — reaches must be listed in scripts/reach.txt with
# the reason it stays (see scripts/reach.sh).
reach:
	./scripts/reach.sh -check
