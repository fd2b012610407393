GO ?= go

.PHONY: build test race bench bench-short bench-check experiments lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector: concurrent runs of one
# shared compilation, the serve soaks and the cluster chaos tests.
race:
	$(GO) test -race ./...

# bench records the experiment-table rows and the incremental, service
# and cluster series to BENCH_<date>.json in the repo root.
bench:
	$(GO) run ./cmd/bench

# bench-short is the CI-sized run.
bench-short:
	$(GO) run ./cmd/bench -short

# bench-check also judges every gate of the table in cmd/bench/gates.go,
# prints one pass/fail line per gate and exits 1 if any failed.
bench-check:
	$(GO) run ./cmd/bench -short -check

# experiments regenerates EXPERIMENTS.md from the table in
# internal/experiments, timing every row on both engines.
experiments:
	$(GO) run ./cmd/bench -report > EXPERIMENTS.md.tmp
	mv EXPERIMENTS.md.tmp EXPERIMENTS.md

lint:
	for f in examples/virgil/*.v; do $(GO) run ./cmd/virgil lint $$f; done
