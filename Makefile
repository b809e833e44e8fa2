# Developer entry points. Each target runs exactly what the matching CI
# job runs, so "it passed locally" and "it passed CI" mean the same
# thing.

GO ?= go
FUZZTIME ?= 2m

# Goroutine-leak verification in the server/shard/index test suites
# (internal/leakcheck, installed via TestMain). On by default; set
# NDSS_LEAKCHECK=0 for one-off debugging of a failing test whose
# deliberately-abandoned goroutines would otherwise add leak noise.
NDSS_LEAKCHECK ?= 1
export NDSS_LEAKCHECK

.PHONY: all build test race leakcheck lint vet fmt fuzz-smoke bench-smoke benchmark-check shard-suite chaos-suite ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# CI "test" job: gofmt + vet (plus a big-endian vet of the index, whose
# list reads swap bytes there) + build + the consolidated race matrix —
# full module under -race, then an uncached rerun of the
# concurrency-heavy serving tier (server, shard, obs, index).
race:
	$(GO) vet ./...
	GOARCH=s390x $(GO) vet ./internal/index/
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/server/ ./internal/shard/ ./internal/obs/ ./internal/index/

# The leak-checked suites alone, with the verifier force-enabled
# regardless of the environment.
leakcheck:
	NDSS_LEAKCHECK=1 $(GO) test -race -count=1 ./internal/server/ ./internal/shard/ ./internal/index/

# CI "shard-suite" job: scatter–gather determinism and fault-injected
# partial results under the race detector, plus the serving-layer
# regression tests that gate the same PR.
shard-suite:
	$(GO) test -race -count=1 ./internal/shard/
	$(GO) test -race -count=1 -run 'Shard|Partial|BodyLimit|CacheKey|Swap' ./internal/server/

# CI "chaos-suite" job: the netfault scripted-failure harness and the
# replica-resilience tests under the race detector — replica kills,
# dead ranges, black holes, breaker/quarantine recovery, the
# coordinator-vs-merged-index determinism assertions, a replica whose
# index reads fail (its 500 must be retried on the healthy replica), and
# the distributed-trace acceptance run (scripted retry + hedge must
# yield one connected trace tree at /debug/trace).
chaos-suite:
	$(GO) test -race -count=1 ./internal/shard/netfault/
	$(GO) test -race -count=1 -run 'Chaos|Replica|Breaker|TokenBucket|QuantileWindow|NextBackoff' ./internal/shard/
	$(GO) test -race -count=1 -run 'ReloadRace|ReplicaMetrics|ReplicaRetriesReadError|ChaosTrace' ./internal/server/

# CI "lint" job: the invariant analyzers (docs/INVARIANTS.md), both
# standalone and driven by the go command, plus their fixture tests.
lint:
	$(GO) run ./cmd/ndss-lint ./...
	$(GO) build -o $(CURDIR)/bin/ndss-lint ./cmd/ndss-lint
	$(GO) vet -vettool=$(CURDIR)/bin/ndss-lint ./...
	$(GO) test -count=1 ./internal/analysis/...
	$(GO) run ./cmd/ndss-lint -suppressions ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# CI "fuzz-smoke" job: each fuzz target over its checked-in seed corpus
# plus FUZZTIME of fresh mutation.
fuzz-smoke:
	$(GO) test ./internal/window/ -run FuzzCompactWindows -fuzz FuzzCompactWindows -fuzztime $(FUZZTIME)
	$(GO) test ./internal/window/ -run FuzzGenerateLinear -fuzz FuzzGenerateLinear -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/ -run FuzzManifestParse -fuzz FuzzManifestParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/ -run FuzzTombstoneParse -fuzz FuzzTombstoneParse -fuzztime $(FUZZTIME)

# CI "bench-smoke" job: one iteration of the query-path microbenchmarks
# (internal/search/bench_test.go), of the index ones
# (internal/index/bench_test.go: build, append, compact, one ingest-churn
# cycle's mutations in fs ops and opens, list reads in
# ns/posting and Open; the window generator on reused scratch), of the
# serving path (internal/server/bench_test.go: one uncached /search
# through ServeHTTP, allocs/op) and of the root benchmarks behind
# Fig 3(d) and AB2, so they cannot rot. Measuring while you work is the
# same command with a real -benchtime and -count.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Search(Hit|Miss|Segmented)|FirstQueryAfterAppend|IntervalScan|CollisionCount' -benchtime 1x ./internal/search/
	$(GO) test -run '^$$' -bench 'Build$$|Append16|Compact9|ChurnCycle|ReadList$$|Open$$' -benchtime 1x ./internal/index/
	$(GO) test -run '^$$' -bench 'GenerateLinear' -benchtime 1x ./internal/window/
	$(GO) test -run '^$$' -bench 'ServeSearch' -benchtime 1x -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench 'Fig3_PrefixLength|Ablation_PrefixFilter' -benchtime 1x .

# CI "benchmark-check" job: the repo benchmark (BENCHMARK.json,
# benchmark/README.md) is a nested module the root `go build/test ./...`
# do not reach; vet and test it here so an internal/ rename can never
# silently break the ruler. Measuring is `bash benchmark/run.sh`.
benchmark-check:
	(cd benchmark && $(GO) vet ./... && $(GO) test ./...)

# Everything a merge gate runs.
ci: race lint shard-suite chaos-suite test bench-smoke benchmark-check
