GO ?= go

.PHONY: build vet fmt-check test race race-engine race-serve race-smt race-storage lint lint-json lint-sarif lint-alloc lint-concurrency lint-self memo-report bench-smt bench-serve bench-disk fuzz-smoke fuzz-storage fuzz-filter smoke-siad smoke-cluster check clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing every Go file gofmt would rewrite, outside
# hidden directories (build output). internal/analysis/testdata/loadskip/
# pkg/_draft.go is deliberately unparsable (it tests the linter's
# load-error path), so it is skipped.
fmt-check:
	@out=$$(find . -path './.*' -prune -o -name '*.go' ! -path './internal/analysis/testdata/loadskip/pkg/_draft.go' -print0 | xargs -0 gofmt -l) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The parallel engine must be race-free and byte-deterministic at any
# scheduler width; exercise both extremes.
race-engine:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/engine/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/engine/

# The result cache's singleflight and the serving tier (sharding, the
# request batcher, admission control) are the other concurrency hotspots;
# always run them racy and fresh.
race-serve:
	$(GO) test -race -count=1 ./internal/cache/ ./internal/serve/... ./cmd/siad/

# The SMT hot path is concurrent in three places — the hash-cons interner,
# the process-wide QE memo, and parallel disjunct elimination — and the
# cache tracer can be swapped while requests are in flight. Run those
# regression suites racy and fresh.
race-smt:
	$(GO) test -race -count=1 ./internal/smt/ ./internal/cache/...

# The segment store's append path and scan path are concurrent (RWMutex
# around the segment list, hooks fired outside the lock); run its suite
# racy and fresh.
race-storage:
	$(GO) test -race -count=1 ./internal/storage/

lint:
	$(GO) run ./cmd/sialint ./...

# Machine-readable lint reports for editor and CI integration.
lint-json:
	$(GO) run ./cmd/sialint -json ./...

lint-sarif:
	$(GO) run ./cmd/sialint -sarif ./...

# Interprocedural budgets: every heap allocation reachable from a
# // sia:hotpath entry must be justified, and every // sia:memoize entry
# must certify as memoization-pure.
lint-alloc:
	$(GO) run ./cmd/sialint -enable alloc-budget,memo-safe ./...

# Concurrency-safety and untrusted-input gate: goroutine lifetimes,
# atomic/plain access mixing, channel-state protocol, and request-derived
# values flowing unbounded into timeouts, loop bounds and allocations.
lint-concurrency:
	$(GO) run ./cmd/sialint -enable goroutine-leak,atomic-mix,chan-misuse,taint-bound ./...

# Self-hosting: the analyzers must hold their own code to the same
# standard they impose on the rest of the repo.
lint-self:
	$(GO) run ./cmd/sialint ./internal/analysis/... ./cmd/sialint/...

# Machine-readable purity certificates for the // sia:memoize entries.
memo-report:
	$(GO) run ./cmd/sialint -enable memo-safe -memo-report memo-report.json ./...

# SMT hot-path bench: runs the Table 2/3 synthesis workload and writes
# per-kind solver latency distributions to BENCH_smt.json, with per-kind
# speedups against the committed BENCH_smt_baseline.json (captured on the
# pre-interner/pre-memo solver).
bench-smt:
	$(GO) run ./cmd/siabench -experiment table2,table3 -queries 20 -scale 1 \
		-bench-out BENCH_smt.json -bench-baseline BENCH_smt_baseline.json

# Serving-tier bench: single replica vs a 3-replica in-process sharded
# cluster on a Zipf-skewed recurring workload, plus a kill-and-restart
# snapshot-warming measurement. Writes BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/siabench -experiment serve -serve-out BENCH_serve.json

# Disk-storage bench: the Fig. 9 runtime comparison over zone-mapped
# segment files, where the Sia rewrite's synthesized predicate prunes
# segments before their pages are read. Writes BENCH_disk.json.
bench-disk:
	$(GO) run ./cmd/siabench -experiment fig9-disk -queries 40 -scale 1,10 \
		-disk-out BENCH_disk.json

fuzz-smoke:
	$(GO) test -fuzz=Fuzz -fuzztime=10s -run='^$$' ./internal/predicate/

# Segment-reader fuzz smoke: corrupt inputs must produce ErrCorrupt,
# never a panic, the byte-level and file-level readers must agree, and
# valid inputs must round-trip.
fuzz-storage:
	$(GO) test -fuzz=FuzzReadSegment -fuzztime=10s -run='^$$' ./internal/storage/

# Compiled-predicate fuzz smoke: for fuzzed generator seeds, the engine's
# filter must select exactly the rows predicate.Eval makes TRUE, and a
# segment the zone maps prune must hold none of them.
fuzz-filter:
	$(GO) test -fuzz=FuzzFilterMatchesEval -fuzztime=10s -run='^$$' ./internal/storage/

# Black-box daemon smoke test: start siad, probe /healthz and /metrics,
# require a clean SIGTERM shutdown within 5s.
smoke-siad:
	./scripts/smoke-siad.sh

# Black-box cluster smoke test: 3 real siad processes sharded via -peers,
# deterministic routing, cross-replica cache hits, drain-writes-snapshot
# and warm restart.
smoke-cluster:
	./scripts/smoke-cluster.sh

# check is the full CI gate: everything must pass before merging.
check: build vet fmt-check race race-engine race-serve race-smt race-storage fuzz-filter lint lint-alloc lint-concurrency lint-self smoke-siad smoke-cluster

clean:
	$(GO) clean ./...
