# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build vet test race trace-bench alloc-bench bench benchmark chaos crash overload obs-smoke route-smoke scenario scenario-full examples experiments fuzz fuzz-codec clean

all: build vet test race crash overload route-smoke fuzz-codec scenario

build:
	$(GO) build ./...

# go vet plus formatting: any file gofmt would rewrite fails the target
# (.bench_build/ holds the benchmark's build outputs, not source).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The whole tree under the race detector (about two minutes on two cores).
race:
	$(GO) test -race ./...

# Fault-injection suite under the race detector: seeded chaos (connection
# drops, worker kills, publish failures) against the full stack, plus the
# chaos/reconnect/lease/retry unit tests. Fixed seeds make failures
# reproducible (see docs/ROBUSTNESS.md). A focused subset of `race`. The
# engine's manager-removal, requeue, worker-crash and Stop tests run twenty
# times each: they stress the hand-off between the pending deque and the
# workers and TCP writers parked on it.
chaos:
	$(GO) test -race ./internal/chaos/
	$(GO) test -race -run 'TestChaos|TestReconnecting|TestWatchdog|TestHeartbeats|TestLease|TestPoison|TestWorkerCrash|TestDo' \
		./internal/core/ ./internal/broker/ \
		./internal/webservice/ ./internal/engine/ ./internal/sdk/ \
		./internal/experiments/
	$(GO) test -race -count=20 -run 'TestScaleInOnIdle|TestBlockWalltime|TestTCPManagerDeath|TestRequeue|TestWorkerCrash|TestPoison|TestStop|TestTCPStop' \
		./internal/engine/

# Crash-recovery suite: builds the real gc-webservice binary, runs it with
# -data-dir, SIGKILLs it 3 times in the middle of a task storm, and asserts
# every acknowledged task reaches exactly one terminal state after WAL
# replay (see docs/DURABILITY.md). Gated on GC_CRASH so plain `go test
# ./...` stays fast.
crash:
	GC_CRASH=1 $(GO) test -count=1 -timeout 300s -v -run TestCrashRecovery ./internal/crash/

# Overload-protection suite: seeded tenant floods against the full
# in-process stack. Asserts a noisy tenant at 10x cannot move a well-behaved
# tenant's p99 beyond 2x its solo baseline, every shed carries Retry-After,
# every admitted task reaches exactly one terminal state, and idempotent
# retries replay the original task IDs across a -data-dir restart (see
# docs/ROBUSTNESS.md). Gated on GC_OVERLOAD so plain `go test ./...` stays
# fast.
overload:
	GC_OVERLOAD=1 $(GO) test -race -count=1 -timeout 300s -v -run TestOverload ./internal/overload/

# Observability smoke: boots the in-process testbed, scrapes and lints the
# /metrics/fleet federation format, then kills an endpoint under load and
# asserts the staleness and failure-rate SLOs fire on /debug/fleet and
# recover after a restart (see docs/OBSERVABILITY.md). A focused subset of
# `race`.
obs-smoke:
	$(GO) test -race -run TestObsSmoke -v ./internal/core/

# Span creation/collection overhead (the per-task cost of tracing), and what
# carrying a trace context costs a result body and a delivery batch.
trace-bench:
	$(GO) test -bench=. -benchmem ./internal/trace/
	$(GO) test -run '^$$' -bench=BenchmarkTraceContext -benchmem ./internal/protocol/

# Allocation ratchets of the saturated path: bytes and objects per batch for
# the broker's publish and delivery pump, the agent's intake and egress
# flush, and the result processor, the retention checks that reused batch
# scratch pins no body, the agent's flat goroutine count (no goroutine per
# drain or flush), and the submit exchange and result batch benchmarks
# under -benchmem (see docs/PERFORMANCE.md "Batch scratch" and "Endpoint
# pipeline").
alloc-bench:
	$(GO) test -count=1 -v -run 'Allocs$$|PinsNoBody$$|GoroutinesFlat$$' ./internal/broker/ ./internal/endpoint/ ./internal/webservice/ ./internal/protocol/ ./internal/sdk/
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitExchange|BenchmarkResultBatch' -benchmem ./internal/webservice/

# Regenerates every table/figure as testing.B measurements.
bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark: end-to-end workloads against the shipped
# binaries with a per-layer budget (see benchmark/README.md).
benchmark:
	$(GO) run ./benchmark

# Routing placement smoke: 1000 simulated endpoints (2% of them 10x slower)
# under the race detector, routed by random vs power-of-two-choices at the
# same offered load. Asserts p2c holds p99 task latency to <= 0.5x random's
# without losing throughput (see docs/PERFORMANCE.md "Load-aware placement").
# Gated on GC_ROUTE so plain `go test ./...` stays fast.
route-smoke:
	GC_ROUTE=1 $(GO) test -race -count=1 -timeout 600s -v -run TestRouteSmoke ./internal/experiments/

# Scenario harness: builds the real gc-webservice (with -pprof), stands up a
# 16-endpoint simulated fleet behind a p2c routing group, and drives the
# built-in steady + burst profiles through the loadgen/sampler/gate pipeline
# (see docs/SCENARIOS.md). Passes only when every run-validity gate holds,
# the burst backlog p95 recovers within its window, and burst-peak pprof
# captures land on disk. The verdict (scenario.json) and the run outputs
# (samples.csv, summary.json, *.pb.gz) land under the git-ignored
# scenario-runs/.
# Gated on GC_SCENARIO so plain `go test ./...` stays fast.
scenario:
	GC_SCENARIO=1 GC_SCENARIO_OUT=$(CURDIR)/scenario-runs/scenario.json \
		$(GO) test -count=1 -timeout 300s -v -run TestScenarioHarness ./internal/scenario/

# Long-form soak: the multi-minute steady-full + burst-full profiles
# (repeated bursts, every recovery gated). Not part of `make all`.
scenario-full:
	GC_SCENARIO=1 GC_SCENARIO_FULL=1 GC_SCENARIO_OUT=$(CURDIR)/scenario-runs/scenario-full.json \
		$(GO) test -count=1 -timeout 900s -v -run TestScenarioHarness ./internal/scenario/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/shellmpi
	$(GO) run ./examples/multiuser
	$(GO) run ./examples/proxystore
	$(GO) run ./examples/realtime

# Prints every paper experiment as a report (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/gc-bench -exp all

fuzz:
	$(GO) test -fuzz FuzzFrameReader -fuzztime 30s ./internal/protocol/
	$(GO) test -fuzz FuzzRender -fuzztime 30s ./internal/template/
	$(GO) test -fuzz FuzzParseRules -fuzztime 30s ./internal/idmap/

# Short codec fuzz pass run as part of `make all`: binary<->JSON equivalence
# and binary-decode hardening, for wire frames (FrameReader, the one decoder
# of every framed connection; see docs/PROTOCOL.md "Framing"), task and
# result bodies (docs/PROTOCOL.md "Task and result bodies"), python payloads
# and submit bodies (docs/PROTOCOL.md "REST API") and for WAL records (see
# docs/DURABILITY.md "Records").
fuzz-codec:
	$(GO) test -fuzz FuzzFrameReader -fuzztime 10s ./internal/protocol/
	$(GO) test -fuzz FuzzCodecEquivalence -fuzztime 10s ./internal/protocol/
	$(GO) test -fuzz FuzzBinaryDecode -fuzztime 10s ./internal/protocol/
	$(GO) test -fuzz FuzzTaskBody -fuzztime 10s ./internal/protocol/
	$(GO) test -fuzz FuzzResultBody -fuzztime 10s ./internal/protocol/
	$(GO) test -fuzz FuzzTraceContext -fuzztime 10s ./internal/protocol/
	$(GO) test -fuzz FuzzPythonSpec -fuzztime 10s ./internal/protocol/
	$(GO) test -fuzz FuzzSubmitBody -fuzztime 10s ./internal/webservice/
	$(GO) test -fuzz FuzzSubmitIDs -fuzztime 10s ./internal/protocol/
	$(GO) test -fuzz FuzzWALRecord -fuzztime 10s ./internal/durable/

clean:
	$(GO) clean ./...
