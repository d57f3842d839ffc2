# Development targets. `make check` is the pre-commit gate: build,
# vet, the fsdmvet invariant checkers, tests, and the godoc lint.
# `make race` runs the race detector over the whole tree plus the
# concurrent engine packages (imc, pathengine, sqlengine parallel
# scans and concurrent joins); CI runs it as its own job so analyzer findings and data
# races fail independently.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet lint fuzz doccheck bench-smoke bench-json loc check

all: build

build:
	$(GO) build ./...

# The second step reruns sqlengine at three core counts: the planner's
# parallel-scan degree follows GOMAXPROCS, so plans (and every test
# that asserts on EXPLAIN text) differ between a 1-core and an N-core
# machine.
test:
	$(GO) test ./...
	$(GO) test -count=1 -cpu 1,2,4 ./internal/sqlengine

race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/imc
	$(GO) test -race -count=1 ./internal/pathengine
	$(GO) test -race -count=1 -run 'TestParallelScan|TestBreakersOverParallelScan|TestConcurrentJoinsShareNoBatch' ./internal/sqlengine

vet:
	$(GO) vet ./...

# Project-specific invariant checkers (cancelcheck, immutcheck,
# metriccheck, lockcheck, errwrapcheck) over every module package.
# See docs/STATIC_ANALYSIS.md.
lint:
	$(GO) run ./cmd/fsdmvet

# Short fuzz pass over every fuzz target. Go refuses -fuzz with more
# than one match per package, so targets are enumerated explicitly.
fuzz:
	$(GO) test -fuzz=FuzzParse$$ -fuzztime=$(FUZZTIME) ./internal/oson
	$(GO) test -fuzz=FuzzEncodeRoundTrip -fuzztime=$(FUZZTIME) ./internal/oson
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/jsontext
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/jsonpath
	$(GO) test -fuzz=FuzzParseStatement -fuzztime=$(FUZZTIME) ./internal/sqlengine
	$(GO) test -fuzz=FuzzSketchMerge -fuzztime=$(FUZZTIME) ./internal/dataguide

# Godoc lint: every exported identifier in internal/ and cmd/ needs a
# doc comment, and every package a package comment.
doccheck:
	$(GO) run ./cmd/doccheck

# One iteration of every benchmark: catches bit-rot in the benchmark
# harnesses without paying for full measurement runs. The second step
# is the allocation-regression gate: BenchmarkFig3OLAPOSON allocs/op
# must stay within 10% of the committed ALLOC_BASELINE.txt figure, so
# the PR9 expansion-allocation work cannot silently erode.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench 'Fig3OLAPOSON$$' -benchtime 5x -benchmem . | $(GO) run ./cmd/allocguard -baseline ALLOC_BASELINE.txt

# Benchmark run emitting the test2json machine-readable event stream
# (one JSON object per line, ns/op and -benchmem allocs/op both
# captured) for dashboards and regression tooling. The Fig3/Fig5/Fig6
# query benchmarks — the ones the scan, plan, batch-spine, and
# expansion work moves — are captured to
# BENCH_PR9.json as the repo's current perf trajectory checkpoint
# (BENCH_PR8.json is the previous one; compare the two for the
# JSON_TABLE expansion-vectorization delta: Fig3 OSON ~302k → ~34k
# allocs/op).
bench-json:
	$(GO) test -run '^$$' -bench 'Fig[356]' -benchmem -json . | tee BENCH_PR9.json
	$(GO) test -run '^$$' -bench 'Table|Fig[4789]' -benchmem -json .

# ROADMAP aim 2's tracked metric: non-test lines of the engine package.
loc:
	@ls internal/sqlengine/*.go | grep -v _test.go | xargs cat | wc -l | xargs echo "sqlengine non-test lines:"

check: build vet lint test doccheck bench-smoke loc
