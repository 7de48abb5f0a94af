# One-command verify recipe, locally and in CI. Targets mirror the CI
# jobs (.github/workflows/ci.yml) so "it passed make" and "it passed CI"
# mean the same thing.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: all build test lint fuzz-smoke bench bench-e2e bench-alloc bench-replay bench-mmu bench-replica

all: build lint test

build:
	$(GO) build ./...

# test runs the tier-1 suite under the race detector, exactly as CI does.
test:
	$(GO) test -race ./...

# lint is the merge gate: gofmt, go vet, and the repo's own analyzer
# suite (cmd/ptlint). The gofmt step fails if any file needs
# reformatting; ptlint exits non-zero on any unsuppressed finding;
# -stats reports per-analyzer wall time on stderr.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/ptlint -stats ./...

# fuzz-smoke gives each fuzz target a short random walk on top of the
# checked-in corpora; FUZZTIME=1m for a deeper local run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAddrFields -fuzztime $(FUZZTIME) ./internal/addr/
	$(GO) test -run '^$$' -fuzz FuzzPTERoundTrip -fuzztime $(FUZZTIME) ./internal/pte/
	$(GO) test -run '^$$' -fuzz FuzzArenaOps -fuzztime $(FUZZTIME) ./internal/ptalloc/
	$(GO) test -run '^$$' -fuzz FuzzTLBIndex -fuzztime $(FUZZTIME) ./internal/tlb/
	$(GO) test -run '^$$' -fuzz FuzzMeterTouch -fuzztime $(FUZZTIME) ./internal/memcost/
	$(GO) test -run '^$$' -fuzz FuzzChurnOps -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzReplicaOps -fuzztime $(FUZZTIME) ./internal/service/

# bench runs every benchmark once — a compile-and-smoke pass, not a
# measurement; use -benchtime with the go tool directly for numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-e2e is the end-to-end performance ledger: every registered
# experiment run once through the engine at the ptbench reference
# budget (400,000 references per trace), three samples each, snapshot
# as BENCH_e2e.json — wall (ns/op), B/op and allocs/op per experiment.
# One sample (a full pass) takes about 20 s on a 2-vCPU host.
# Regenerate before and after any change that claims an end-to-end gain
# and commit the diff.
bench-e2e:
	$(GO) test -run '^$$' -bench BenchmarkExperiment -benchtime 1x -count 3 -benchmem -timeout 30m ./internal/engine/ \
	| $(GO) run ./cmd/benchjson > BENCH_e2e.json

# bench-alloc measures the arena storage layer — fresh vs pooled table
# builds and the walk-path Touch — and snapshots the result as
# BENCH_alloc.json (via cmd/benchjson, benchstat-compatible input).
# Regenerate after storage-layer changes and commit the diff.
bench-alloc:
	{ $(GO) test -run '^$$' -bench 'BenchmarkBuild(Fresh|Pooled)|BenchmarkFigure9RowPooled' -benchmem -count 3 ./internal/sim/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkMeterTouch -benchmem -count 3 ./internal/memcost/ ; } \
	| $(GO) run ./cmd/benchjson > BENCH_alloc.json

# bench-replay measures the reference-replay fast path — indexed TLB
# lookup per kind at 64–1024 entries, the word fill core per kind and
# the complete-subblock block fill (BenchmarkRefill), buffered
# zero-alloc trace generation, and the end-to-end Figure 11a and 11d
# replays (the fig11d rows are the only ones that prefetch page
# blocks) — and snapshots the
# result as BENCH_replay.json. Regenerate after TLB or replay changes
# and commit the diff.
bench-replay:
	{ $(GO) test -run '^$$' -bench 'BenchmarkAccess|BenchmarkRefill' -benchmem -count 3 ./internal/tlb/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkGeneratorFill -benchmem -count 3 ./internal/trace/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkFigure11Replay -benchmem -count 3 ./internal/sim/ ; } \
	| $(GO) run ./cmd/benchjson > BENCH_replay.json

# bench-mmu measures the composable translation hierarchy — the
# Hierarchy dispatch micro-costs (L1 hit bare vs behind the full
# L1+L2+PWC chain, and the miss path through filter and fill) and the
# end-to-end Figure 11a replay under each -mmu pipeline, plus all three
# fused in one pass — and snapshots the result as BENCH_mmu.json. flat vs
# Figure11Replay/e64/indexed bounds the cost of the abstraction when
# unconfigured. Regenerate after mmu or replay changes and commit the
# diff.
bench-mmu:
	{ $(GO) test -run '^$$' -bench BenchmarkHierarchy -benchmem -count 3 ./internal/mmu/ ; \
	  $(GO) test -run '^$$' -bench BenchmarkFigure11Hierarchy -benchmem -count 3 ./internal/sim/ ; } \
	| $(GO) run ./cmd/benchjson > BENCH_mmu.json

# bench-replica measures the replicated page-table service — read
# scaling across goroutines × replication factor (factor 1 is the plain
# single-table service) and the broadcast write cost that climbs with
# the factor — and snapshots the result as
# BENCH_replica.json. The read-mostly claim lives here: R=8/g8 vs
# R=1/g8 is the contention the replication removes — on a multi-core
# host; with one CPU the read curves collapse to serial cost (the
# write curve's linear climb with R shows regardless). Regenerate
# after service or replication changes and commit the diff.
bench-replica:
	$(GO) test -run '^$$' -bench 'BenchmarkReplicated(Read|Write)' \
	  -benchmem -count 3 ./internal/service/ \
	| $(GO) run ./cmd/benchjson > BENCH_replica.json
