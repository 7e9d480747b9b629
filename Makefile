# Convenience targets; everything is plain `go` underneath.

.PHONY: all check build vet test test-short race chaos obs loadtest overload tracesmoke edgesmoke perfsmoke vuln bench bench-diff benchsmoke experiments examples cover

all: build vet test

# check is the CI gate: build, vet, tests, the race detector, the
# observability suite, a load-generator smoke run, the overload
# shed-path smoke, the request-tracing smoke, the edge-cache smoke, and
# the repository benchmark's checks.
check: build vet test race obs loadtest overload tracesmoke edgesmoke perfsmoke

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

test-short:
	go test -short ./...

race:
	go build ./... && go test -race ./...

# chaos drives every ABR algorithm through deterministic fault storms
# (HTTP 5xx/reset/stall/truncate via internal/faults, link outages via
# netsim.OutageLink) under the race detector. -count=1 defeats the test
# cache so the storms actually run.
chaos:
	go test -race -count=1 ./internal/faults/
	go test -race -count=1 -run 'Chaos|Outage|Truncated|Cancellation' ./internal/httpdash/ ./internal/netsim/ ./internal/sim/ ./internal/campaign/
	go test -race -count=1 -run 'Overload|Admission|Breaker|Shutdown|Panic' ./cmd/loadgen/ ./internal/httpdash/ ./internal/pool/
	go test -race -count=1 -run 'Edge|Stale|Singleflight' ./internal/edgecache/ ./internal/httpdash/

# obs exercises the telemetry layer end to end under the race detector:
# registry/exposition correctness and concurrency in internal/telemetry,
# then the wiring — per-rung server snapshots and client counters
# (httpdash), decision-trace recording (sim), live campaign metrics and
# the zero-overhead/determinism pins (campaign, root). -count=1 defeats
# the test cache so the concurrent hammers actually run.
obs:
	go test -race -count=1 ./internal/telemetry/
	go test -race -count=1 -run 'Telemetry|Snapshot|Recorder|DecisionTrace|Live|NDJSON' ./internal/httpdash/ ./internal/sim/ ./internal/campaign/
	go test -count=1 -run 'TestSessionAllocsTelemetryDisabled' .

# loadtest smokes the serving path end to end: cmd/loadgen stands up an
# in-process httpdash server, hammers it with closed-loop workers for a
# couple of seconds, and fails if the JSON report lands under 1 req/s —
# a floor so low that only a wedged serving path can miss it.
loadtest:
	go run ./cmd/loadgen -workers 4 -duration 2s -min-rps 1 -json

# overload smokes the shed path end to end: loadgen's open loop offers
# 400 req/s against an in-process server admitting 4 concurrent
# transfers (queue of 8, 50ms deadline, 4 MB/s token bucket) — far past
# capacity — and -gate-overload fails the run unless shedding actually
# happened, issued == ok + shed + errors + aborted, every 5xx carried
# Retry-After, and Shutdown left zero transfers in flight.
overload:
	go run ./cmd/loadgen -rps 400 -max-inflight 4 -max-queue 8 -queue-wait 50ms -rate 4 -rungs 0 -duration 2s -json -gate-overload

# tracesmoke smokes request tracing end to end: a 2s loadgen run with
# injected 5xx faults and retries, tracing on with keep-everything
# sampling, and -gate-trace fails the run unless the store holds at
# least one sampled cross-process trace — client attempt spans and
# server spans merged under one trace ID, proving the traceparent
# header survived the wire.
tracesmoke:
	go run ./cmd/loadgen -workers 4 -duration 2s -fault-5xx 0.25 -fault-max-per-key 1 -retries 3 -rungs 0 -trace-cap 2048 -trace-ratio 1 -trace-slowest 3 -json -gate-trace

# edgesmoke smokes the caching edge tier end to end: loadgen offers
# 300 req/s for 2s through an in-process edge proxy fronting an
# in-process origin, cycling one rung of a 10-segment presentation, so
# after the 10 cold fills everything is a cache hit. -gate-hit-ratio
# fails the run unless the hit ratio reaches 90% and every edge request
# resolved to exactly one of hit/fill/stale/error; -gate-trace (keep-
# everything sampling) additionally requires one sampled miss whose
# loadgen, edge, and server fragments merged into a single three-
# service trace — proof the traceparent header survived both hops.
edgesmoke:
	go run ./cmd/loadgen -edge -rps 300 -duration 2s -video-sec 20 -rungs 0 -gate-hit-ratio 0.9 -trace-cap 4096 -trace-ratio 1 -json -gate-trace

# perfsmoke runs the repository benchmark's own checks. perfbench is a
# separate Go module (it imports this one through a replace directive),
# so `go test ./...` here never builds it. Its unit tests include
# TestEdgeMixMatchesCampaign, which re-derives the campaign's decision
# shares; the 2s campaign run fails unless every 4000-session batch
# DeepEquals the warm-up batch. Build outputs go to .bench_build/.
perfsmoke:
	cd perfbench && go test ./...
	bash perfbench/run.sh --workload campaign --seed 1 --seconds 2 --trace 0

# vuln scans the module against the Go vulnerability database. The
# scanner is optional locally (it needs a network fetch to install);
# CI installs it explicitly, so absence here is a skip, not a failure.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# bench runs the full suite with -benchmem and records a dated JSON
# snapshot (name, ns/op, allocs/op, B/op) for regression tracking.
bench:
	go test -bench=. -benchmem ./... | tee /dev/stderr | go run ./cmd/benchdiff -parse -out BENCH_$(shell date +%Y-%m-%d).json

# bench-diff compares two snapshots and fails on >20% regressions:
#   make bench-diff OLD=BENCH_2026-08-01.json NEW=BENCH_2026-08-06.json
bench-diff:
	go run ./cmd/benchdiff -old $(OLD) -new $(NEW)

# benchsmoke runs the session and campaign benchmarks once each
# (-benchtime=1x: a compile-and-execute smoke test, not a measurement)
# and diffs the result against the newest committed snapshot.
# Single-iteration numbers are noisy — timings wildly, and allocations
# somewhat, because b.N=1 charges one-time memoization (compiled traces,
# rung tables) to the only iteration — so the diff is informational:
# the leading `-` keeps it from failing the build. The real gate is a
# full `make bench` snapshot compared with bench-diff.
# Dated snapshots sort lexicographically by date; BENCH_seed.json is
# excluded so the baseline is the most recent recording, not the seed.
BENCH_BASELINE := $(lastword $(sort $(wildcard BENCH_2*.json)))
benchsmoke:
	go test -bench='Session|Campaign' -benchtime=1x -benchmem -run='^$$' . \
		| go run ./cmd/benchdiff -parse -out /tmp/benchsmoke.json
	-go run ./cmd/benchdiff -old $(BENCH_BASELINE) -new /tmp/benchsmoke.json

# Regenerate every paper table/figure plus the ablations and extensions.
experiments:
	go run ./cmd/experiments | tee experiments_output.txt

examples:
	go run ./examples/quickstart
	go run ./examples/busride
	go run ./examples/alphasweep
	go run ./examples/modelfit
	go run ./examples/fairshare
	go run ./examples/trainagent
	go run ./examples/httpstream

cover:
	go test -cover ./...
