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

.PHONY: all build test race leakcheck lint vet fmt fuzz-smoke bench-smoke benchmark-check shard-suite chaos-suite fault-injection ci

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
	$(GO) test -race -count=1 -run 'Chaos|Replica|Breaker|QuantileWindow' ./internal/shard/
	$(GO) test -race -count=1 -run 'ReloadRace|ReplicaMetrics|ReplicaRetriesReadError|ChaosTrace' ./internal/server/

# CI "fault-injection" job: the crash-safety suites under the race
# detector — fault-injected builds, commit/recovery loops, segment
# commit/compaction crash loops, manifest rejection, segmented reads
# that fail, hot-reload/live-ingest drains, and shutdown (Server.Close).
fault-injection:
	$(GO) test -race -count=1 ./internal/fsio/
	$(GO) test -race -count=1 -run 'Crash|Fault|Recover|Orphan|Manifest|Legacy|Corrupt|Truncat|Writer|Segment|Compact|Tombstone|Delete|Append' ./internal/index/
	$(GO) test -race -count=1 -run 'Segment|ReadFault' ./internal/search/
	$(GO) test -race -count=1 -run 'Reload|Ingest|Compact|Close' ./internal/server/

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
	$(GO) test ./internal/index/ -run FuzzOpenSegment -fuzz FuzzOpenSegment -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/ -run FuzzGroupByHash -fuzz FuzzGroupByHash -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search/ -run FuzzIntervalScan -fuzz FuzzIntervalScan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search/ -run FuzzCollisionCount -fuzz FuzzCollisionCount -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search/ -run FuzzSegmentedSearch -fuzz FuzzSegmentedSearch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs/ -run FuzzParseTraceparent -fuzz FuzzParseTraceparent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run FuzzDecodeRequest -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -run FuzzDecodeResponse -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME)

# CI "bench-smoke" job: one iteration of the query-path microbenchmarks
# (internal/search/bench_test.go), of the index ones
# (internal/index/bench_test.go: build, out-of-core build, append,
# compact, one ingest-churn cycle's mutations in fs ops and opens, list
# reads in ns/posting and Open), of both window generators (the stack on reused
# scratch and the segment tree), of the serving path
# (internal/server/bench_test.go: one uncached /search through
# ServeHTTP, allocs/op), of the query-message codec against
# encoding/json (internal/wire: request decode, response encode and
# decode in ns/op and allocs/op), of the root benchmarks behind Fig 3(d), AB1
# and AB2, and ten queries per cell of the replica-tier scenario matrix
# (internal/shard/replica_bench_test.go), so they cannot rot. Measuring
# while you work is the same command with a real -benchtime and -count.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Search(Hit|Miss|Segmented)|FirstQueryAfterAppend|IntervalScan|CollisionCount' -benchtime 1x ./internal/search/
	$(GO) test -run '^$$' -bench 'Build$$|BuildExternal|Append16|Compact9|ChurnCycle|ReadList$$|Open$$' -benchtime 1x ./internal/index/
	$(GO) test -run '^$$' -bench 'ScratchGenerate|GenerateSegmentTree' -benchtime 1x ./internal/window/
	$(GO) test -run '^$$' -bench 'ServeSearch' -benchtime 1x -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench 'WireCodec' -benchtime 1x -benchmem ./internal/wire/
	$(GO) test -run '^$$' -bench 'ReplicaScenarios' -benchtime 10x ./internal/shard/
	$(GO) test -run '^$$' -bench 'Fig3_PrefixLength|Ablation_PrefixFilter|Ablation_WindowGen' -benchtime 1x .

# CI "benchmark-check" job: the repo benchmark (BENCHMARK.json,
# benchmark/README.md) is a nested module the root `go build/test ./...`
# do not reach; vet and test it here so an internal/ rename can never
# silently break the ruler. Measuring is `bash benchmark/run.sh`.
benchmark-check:
	(cd benchmark && $(GO) vet ./... && $(GO) test ./...)

# Everything a merge gate runs.
ci: race lint shard-suite chaos-suite fault-injection test bench-smoke benchmark-check
