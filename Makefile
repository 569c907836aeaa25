# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# targets.

GO ?= go

.PHONY: all fmt vet build test race test-386 chaos fuzz-seeds bench bench-baseline bench-tcp bench-tcp-baseline bench-all smoke-p64 trace-smoke daemon-smoke cluster-smoke collectives-shape api api-check perfbench-check ci

all: ci

# gofmt -l prints offending files; fail if any.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Explicit -timeout: the chaos/abort tests promise every injected hang
# becomes an error; a silent-hang regression should fail fast.
race:
	$(GO) test -race -timeout 5m ./...

# 32-bit build of the word-wise reduction kernel and the message model
# it folds: the kernel loads words through encoding/binary, not unsafe,
# so it must give the same bytes on a 4-byte-word target.
test-386:
	GOARCH=386 $(GO) test ./internal/comm/ ./internal/core/

# Fault-injection and abort-path suites, plus the run-isolation suites
# (back-to-back, overlapping and pipelined runs on one warm machine):
# with no start barrier, isolation rests on armed inboxes and per-run
# epochs alone. Then the stpbench sweep.
chaos:
	$(GO) test -race -timeout 4m -run 'Chaos|Abort|Deadline|Timeout|Cancel|DialRetry|DialPermanent|MidRunConnection|Isolation|Overlap|BackToBack|Bleed|Pipelined' ./internal/faults/ ./internal/rt/ ./internal/live/ ./internal/tcp/ ./internal/daemon/ .
	$(GO) run ./cmd/stpbench -chaos

# Replay the checked-in fuzz seed corpora (no fuzzing time budget).
fuzz-seeds:
	$(GO) test -run=Fuzz ./internal/...

# Figure-regeneration benchmarks, best-of-3, parsed into BENCH_sim.json
# (ns/op + allocs/op per figure) and gated at 2x ns/op against the
# committed baseline. Refresh the baseline with `make bench-baseline`
# after an intentional perf change.
bench:
	$(GO) test -bench 'Fig' -benchmem -count 3 -run '^$$' -timeout 30m . \
		| $(GO) run ./cmd/stpperf -out BENCH_sim.json
	$(GO) run ./cmd/stpperf -check -baseline BENCH_baseline.json -current BENCH_sim.json -max-ratio 2

bench-baseline:
	$(GO) test -bench 'Fig' -benchmem -count 3 -run '^$$' -timeout 30m . \
		| $(GO) run ./cmd/stpperf -out BENCH_baseline.json

# TCP engine benchmarks (frame write/read hot path, steady-state
# Send-Recv, sparse vs full mesh setup, k-ported fan-out), best-of-3,
# parsed into BENCH_tcp.json and gated at 2x ns/op against the committed
# baseline. Fast enough for the ci target. Refresh the baseline with
# `make bench-tcp-baseline` after an intentional change.
bench-tcp:
	$(GO) test -bench 'Frame|SteadyState|Setup|KPort' -benchmem -count 3 -run '^$$' -timeout 10m ./internal/tcp/ \
		| $(GO) run ./cmd/stpperf -out BENCH_tcp.json
	$(GO) run ./cmd/stpperf -check -baseline BENCH_tcp_baseline.json -current BENCH_tcp.json -max-ratio 2

bench-tcp-baseline:
	$(GO) test -bench 'Frame|SteadyState|Setup|KPort' -benchmem -count 3 -run '^$$' -timeout 10m ./internal/tcp/ \
		| $(GO) run ./cmd/stpperf -out BENCH_tcp_baseline.json

# Sparse-mesh scale smoke: one real-byte broadcast over a route-planned
# p=64 mesh — the quick proof that the sparse TCP path works at a scale
# the full mesh makes painful. (TestSparseBroadcastP128 runs the p=128
# variant in the regular test sweep.)
smoke-p64:
	$(GO) test -run 'TestSparseBroadcastP64Smoke' -count 1 -timeout 5m ./internal/tcp/

# Microbenchmarks across all packages (no JSON, no gate).
bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# End-to-end trace export: run stptrace on all three engines (plus a
# fault-injected TCP run), writing Chrome and JSONL traces, then validate
# every file against its schema with stptrace -validate.
trace-smoke:
	@mkdir -p .trace-smoke
	$(GO) run ./cmd/stptrace -engine sim -rows 4 -cols 4 -alg Br_xy_source -dist E -s 4 -bytes 1024 \
		-chrome .trace-smoke/sim.json -json .trace-smoke/sim.jsonl
	$(GO) run ./cmd/stptrace -engine live -rows 4 -cols 4 -alg Br_Lin -dist E -s 4 -bytes 1024 \
		-chrome .trace-smoke/live.json -json .trace-smoke/live.jsonl
	$(GO) run ./cmd/stptrace -engine tcp -rows 2 -cols 2 -alg Br_Lin -dist E -s 2 -bytes 512 \
		-chrome .trace-smoke/tcp.json -json .trace-smoke/tcp.jsonl
	$(GO) run ./cmd/stptrace -engine live -rows 2 -cols 2 -alg Br_Lin -dist E -s 2 -bytes 512 \
		-fault-dup 0.9 -fault-seed 7 -chrome .trace-smoke/faulty.json -json .trace-smoke/faulty.jsonl
	$(GO) run ./cmd/stptrace -validate .trace-smoke/*.json .trace-smoke/*.jsonl
	@rm -rf .trace-smoke

# End-to-end service smoke: start stpbcastd on a random port, run one
# broadcast per engine through stpctl, check /metrics agrees, and drain
# cleanly via /v1/shutdown.
daemon-smoke:
	sh scripts/daemon_smoke.sh

# Multi-process cluster smoke: stpworker spawns 4 worker OS processes,
# runs a p=64 sparse broadcast across them, and fails on any lazy dial
# (plus an adopt-mode leg with externally started workers).
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Modern-collectives acceptance gate: the figCollectives shape test
# (newcomer schedules within 10% of the incumbent best per cell, and the
# per-collective planner tracking the cell's true best).
collectives-shape:
	$(GO) test -run 'TestFigCollectivesShape' -count 1 -timeout 10m ./internal/bench/

# Golden public-API surface of the facade package. `make api` refreshes
# the committed file after an intentional API change; `make api-check`
# (run by CI) fails when the tree and api/stpbcast.txt disagree, so the
# public surface can only change with an explicit, reviewed diff.
api:
	@mkdir -p api
	$(GO) run ./cmd/stpapi -dir . > api/stpbcast.txt

api-check:
	$(GO) run ./cmd/stpapi -dir . -check api/stpbcast.txt

# The benchmark module (perfbench/) is its own Go module, so `go test
# ./...` never reaches it, yet it imports internal/live and internal/tcp:
# vet and test it on its own so an engine API change cannot break it
# unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

ci: fmt vet build race test-386 fuzz-seeds smoke-p64 trace-smoke daemon-smoke cluster-smoke collectives-shape api-check bench-tcp perfbench-check
