# Tier-1 gate for this repository. `make check` is what CI runs on every
# change; `make race` is required for anything touching the Engine's
# worker pool or pattern cache.

GO ?= go
DATE := $(shell date +%Y%m%d)

.PHONY: check build vet test race atpg-race bench bench-json telemetry-race wide-race fuzz-equiv api-compat serve-smoke loadsmoke obs-smoke bench-cluster

check: vet build test race atpg-race telemetry-race wide-race fuzz-equiv api-compat bench-json serve-smoke loadsmoke obs-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The ATPG generation paths under the race detector: the incremental
# PODEM engine against its full-reimplication reference, the batched
# fault-dropping pass and random phase against serial per-pattern
# crediting, and the 64-lane random phase's coverage parity.
atpg-race:
	$(GO) test -race -run 'Podem|Parallel|DetectAllMask|RandomPhase' ./internal/atpg/

# Engine acceptance benchmark: sequential vs GOMAXPROCS Table I.
bench:
	$(GO) test -run=NONE -bench=BenchmarkTableOne -benchtime=1x .

# Machine-readable perf trajectory: a small Table I run whose manifest
# (environment, per-stage wall times, counters, results) lands in
# BENCH_<date>.json for cross-commit comparison.
bench-json:
	$(GO) run ./cmd/tableone -circuits s344,s382,s444 -manifest BENCH_$(DATE).json >/dev/null

# The telemetry path under the race detector: concurrent Engine workers
# feeding one Recorder, registry, and trace writer. The Packed kernel,
# packed Monte-Carlo, hook-pairing and scanpowerd service tests ride along
# so the bit-parallel paths and the job queue are raced too.
telemetry-race:
	$(GO) test -race -run 'Telemetry|Recorder|Trace|Registry|Packed|StageHooks|PatternCache|Submit|Queue|Coalesc|MeasureNames|Drain|Deadline|Disconnect|Cancel|MCPacked|MCBatch|MCBackend' . ./internal/telemetry/ ./internal/power/ ./internal/service/ ./internal/obs/ ./internal/core/

# The 256-lane compiled kernels under the race detector: the Compile
# lowering property test, the wide-vs-scalar and width-invariance
# equivalence suites, and the lane-width plumbing of every packed
# consumer (measure, obs, fill, faultsim, leakage accumulators).
wide-race:
	$(GO) test -race -run 'Wide|Compile|Lane|PackedW|FaultSimW|MeasureScanPacked|EstimatePacked|FillPacked' ./internal/sim/ ./internal/leakage/ ./internal/power/ ./internal/obs/ ./internal/core/ ./internal/atpg/

# Wire-compatibility gate for the v1 job API: golden JSON fixtures under
# api/testdata round-tripped through the repro/api marshallers and the
# shared validator, so a refactor that moves a byte on the wire — field
# renamed, omitempty dropped, error message reworded — fails here before
# it ships. Regenerate intentionally with:
#   go test ./api/ -run TestAPICompat -update
api-compat:
	$(GO) test ./api/ -run 'TestAPICompat|TestValidate' -count=1

# Full service contract against a real scanpowerd process: boots the
# daemon on a random port, checks the inline-c17 result is bit-identical
# to an in-process Engine run, exercises 429 backpressure and DELETE, and
# requires a clean SIGTERM drain with a balanced span trace.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# Cluster contract against real scanpowerd processes: single-node cold
# baseline, 3-node sharded cluster under the same load, mixed traffic
# with one node SIGKILLed and restarted on its result store (must serve
# a first-life result bit-identically from disk, no ATPG recompute),
# and a clean SIGTERM drain of every node. Short traffic windows here;
# `make bench-cluster` is the full-length run.
loadsmoke:
	$(GO) run ./scripts/loadsmoke -short

# Observability contract against a real 3-node cluster: a forwarded job's
# merged trace spans >= 2 nodes under one trace ID (queried from both the
# owner and the forwarding node), a client traceparent is adopted, and
# the fused /v1/cluster/metrics counters and submit-histogram buckets are
# bit-exact sums of the per-node /v1/node/metrics snapshots.
obs-smoke:
	$(GO) run ./scripts/obssmoke

# Full-length cluster benchmark: throughput/latency percentiles of the
# single node vs the 3-node cluster land in BENCH_<date>_cluster.json.
# The cold-scaling bar (>= 2x) is enforced on hosts with >= 3 CPUs.
bench-cluster:
	$(GO) run ./scripts/loadsmoke -out BENCH_$(DATE)_cluster.json

# Short production-vs-reference equivalence fuzz: random circuits,
# pattern sets, shift configs and chain counts through the packed
# measurement kernel and the dense reference (bit-equal reports), and its
# two building blocks alone — the popcount state counter against a
# scalar per-cycle counter (exact counts) and the packed scan stimulus
# against Run's per-cycle stream (bit-equal lanes); then random circuits
# and flow shapes through the packed Monte-Carlo kernels and the scalar
# reference (bit-equal solutions). The seed corpora also run on every
# plain `go test`.
fuzz-equiv:
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzWideEquivalence -fuzztime 10s
	$(GO) test ./internal/power/ -run '^$$' -fuzz FuzzMeasureScanPackedEquivalence -fuzztime 10s
	$(GO) test ./internal/leakage/ -run '^$$' -fuzz FuzzCountStatesPacked -fuzztime 10s
	$(GO) test ./internal/scan/ -run '^$$' -fuzz FuzzRunPackedMatchesRun -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzMCPackedEquivalence -fuzztime 10s
	$(GO) test ./internal/atpg/ -run '^$$' -fuzz FuzzFaultSimEquivalence -fuzztime 10s
