GO ?= go

.PHONY: all build tier1 tier1.5 verify race vet test bench-json bench-ledger bench-ledger-compare bench-smoke bench-regression soak clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1: the baseline gate every change must keep green.
tier1:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Tier-1.5: static analysis plus the full suite under the race detector —
# the concurrent serving pipeline (internal/serve, wire, engine) must stay
# data-race free.
tier1.5: vet race

verify: tier1 tier1.5

# Regenerates the checked-in BENCH_PR*.json snapshots that bench-regression
# diffs against.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkLaneServing64' -benchtime 1x -timeout 30m . \
		| $(GO) run ./cmd/hesgx-bench2json -o BENCH_PR6.json
	@cat BENCH_PR6.json
	$(GO) test -run '^$$' -bench 'Benchmark(MulRNS2048|MulRNS8192|RelinRNS2048|RelinRNS8192)$$' \
		-benchtime 30x -timeout 30m . \
		| $(GO) run ./cmd/hesgx-bench2json -o BENCH_PR8.json
	@cat BENCH_PR8.json
	$(GO) test -run '^$$' -bench 'BenchmarkPackedConvVsGather$$' -benchtime 3x -timeout 30m . \
		| $(GO) run ./cmd/hesgx-bench2json -o BENCH_PR9.json
	@cat BENCH_PR9.json

# The inference ledger (benchmark/README.md): one end-to-end row per
# workload, appended to LEDGER_OUT as JSON lines. bench-ledger-compare takes
# two such files — typically one from the parent commit, one from the change
# — and prints medians, ratios and bounds, failing on a regression:
#   make bench-ledger LEDGER_OUT=benchmark/out/change.jsonl
#   make bench-ledger-compare A=parent.jsonl B=benchmark/out/change.jsonl
LEDGER_WORKLOADS = scalar_1c packed_1c lane_2c packed_8192_1c
LEDGER_OUT ?= benchmark/out/ledger.jsonl
LEDGER_SEED ?= 1
bench-ledger:
	@mkdir -p $(dir $(LEDGER_OUT))
	@for w in $(LEDGER_WORKLOADS); do \
		bash benchmark/run.sh --workload $$w --seed $(LEDGER_SEED) --out $(LEDGER_OUT) || exit 1; \
	done

bench-ledger-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-ledger-compare A=<base.jsonl> B=<new.jsonl>"; exit 2; }
	bash benchmark/run.sh compare $(A) $(B)

# One-iteration pass over every benchmark — CI smoke that the bench code
# still compiles and runs, without paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Regression gate against the checked-in BENCH_PR*.json baselines: re-run
# each benchmark into a scratch report (never clobbering the baseline —
# bench-json owns that) and fail on a regression past 2x. The loose tolerance
# absorbs CI hardware noise while still catching order-of-magnitude mistakes.
# Wire size is gated by the inference ledger (upload/download bytes per
# image, 1 % bound), not here.
bench-regression:
	$(GO) test -run '^$$' -bench 'BenchmarkLaneServing64' -benchtime 1x -timeout 30m . \
		| $(GO) run ./cmd/hesgx-bench2json -o /tmp/hesgx-bench-lanes.json
	$(GO) run ./cmd/hesgx-benchdiff -base BENCH_PR6.json \
		-new /tmp/hesgx-bench-lanes.json -max-ratio 2.0 -metrics ns/op \
		-min-ratio 0.5 -min-metrics lane_images/sec,speedup_x
	$(GO) test -run '^$$' -bench 'Benchmark(MulRNS2048|MulRNS8192|RelinRNS2048|RelinRNS8192)$$' \
		-benchtime 30x -timeout 30m . \
		| $(GO) run ./cmd/hesgx-bench2json -o /tmp/hesgx-bench-rns.json
	$(GO) run ./cmd/hesgx-benchdiff -base BENCH_PR8.json \
		-new /tmp/hesgx-bench-rns.json -max-ratio 2.0 -metrics ns/op
	$(GO) test -run '^$$' -bench 'BenchmarkPackedConvVsGather$$' -benchtime 3x -timeout 30m . \
		| $(GO) run ./cmd/hesgx-bench2json -o /tmp/hesgx-bench-packed.json
	$(GO) run ./cmd/hesgx-benchdiff -base BENCH_PR9.json \
		-new /tmp/hesgx-bench-packed.json -max-ratio 2.0 -metrics packed_ns/op,cts/image \
		-min-ratio 0.5 -min-metrics speedup_x \
		-floor 4.0 -floor-metrics speedup_x
	$(MAKE) soak SOAK_DURATION=5s

# End-to-end latency under load: drive an in-process reference server with
# the load generator and fail on any shed or unjoined trace. The selftest
# server runs the full diagnostics loop armed (event bus, flight recorder,
# capturer), and -require-no-bundles asserts a healthy run triggers zero
# postmortem bundles. This is the "does the whole serving stack hold its
# SLOs" gate, complementing the per-component benchmarks above.
SOAK_DURATION ?= 10s
soak:
	$(GO) run ./cmd/hesgx-loadgen -selftest -clients 4 \
		-duration $(SOAK_DURATION) -max-shed-rate 0 -require-joined \
		-require-no-bundles

clean:
	$(GO) clean ./...
