GO ?= go

.PHONY: build test race bench bench-short bench-check lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector: concurrent runs of one
# shared compilation, the serve soaks and the cluster chaos tests.
race:
	$(GO) test -race ./...

# bench records the full E1-E8 and engine/tiering/analysis/incremental/
# cluster suite to BENCH_<date>.json in the repo root.
bench:
	$(GO) run ./cmd/bench

# bench-short is the CI-sized run.
bench-short:
	$(GO) run ./cmd/bench -short

# bench-check additionally enforces the -check gates (engine, tiering,
# heap reduction, analysis overhead, incremental, cluster, baseline).
bench-check:
	$(GO) run ./cmd/bench -short -check

lint:
	for f in examples/virgil/*.v; do $(GO) run ./cmd/virgil lint $$f; done
