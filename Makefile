# Developer / CI targets. `make check` is the full gate: build, vet, the
# tier-1 test suite, the race detector over the concurrent packages, a
# short run of every fuzz target, the documentation lint, and a one-shot
# smoke run of the streaming-build benchmarks.

GO ?= go

# Per-target budget for `make fuzz` (and the fuzz leg of `make check`).
FUZZTIME ?= 5s

.PHONY: build test vet race fuzz bench bench-convert bench-map bench-serve \
	bench-recrawl bench-shard bench-stream-short docs-lint chaos chaos-drift \
	chaos-serve scale-smoke coverage loc check ci-test ci-race-chaos ci-fuzz-docs

# Packages whose statement coverage is gated in CI (the convert hot path
# plus the query/serving read path and the discover->mine->map stages).
COVER_PKGS = webrev/internal/bayes webrev/internal/convert webrev/internal/xmlout \
	webrev/internal/query webrev/internal/pathindex webrev/internal/serve \
	webrev/internal/discover webrev/internal/schema webrev/internal/mapping
# Floor enforced by `make coverage` / the CI coverage job. The
# discover/mine/map packages carry a higher floor (pkg=floor form,
# understood by cmd/covercheck): their correctness rests on equivalence
# proofs, so untested branches there are a determinism risk.
COVER_FLOOR ?= 70
COVER_ARGS = webrev/internal/bayes webrev/internal/convert webrev/internal/xmlout \
	webrev/internal/query webrev/internal/pathindex webrev/internal/serve=80 \
	webrev/internal/discover=85 webrev/internal/schema=85 webrev/internal/mapping=85

# Benchmarks gating the CI bench-regression job: the per-document convert
# hot path (tokenize, classify, concept matching, parse, serialize), the
# store decoder every stored document is read back through, the schema
# stages, the served val predicates (a contains count over a frozen
# path index, the concept endpoint), and the open of a disk repository to
# its first answer.
CONVERT_BENCH = 'BenchmarkConvertResume|BenchmarkClassify|BenchmarkFrozenClassify|BenchmarkFindAllResume|BenchmarkParseResumeLike|BenchmarkMarshal|BenchmarkUnmarshal|BenchmarkExtract|BenchmarkDiscover|BenchmarkCountContains|BenchmarkServeConcept|BenchmarkOpenSnapshot'

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Vet, plus a formatting gate: any tracked Go file gofmt would rewrite
# fails the target (and with it CI's ci-test leg).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# The crawler's worker pool, retry/backoff machinery, parallel document
# mapping, and fault-injection middleware are concurrency-heavy; they must
# stay race-clean.
race:
	$(GO) test -race ./...

# Native fuzz targets: the parser, the cleaner and the full converter must
# accept arbitrary bytes without panicking; the tree-edit-distance memo
# must additionally stay equivalent to its naive reference, and merged
# per-shard path accumulators to the serial fold, on arbitrary inputs;
# the store decoder must accept exactly what Marshal writes (an accepted
# input re-marshals to itself and encoding/xml accepts it; a built tree
# round-trips), and its tree-free visitor exactly the same inputs;
# fold/subtract interleavings over any accumulator must exactly invert, as
# every accumulator is of one kind; opening a repository directory from
# arbitrary index.log and segment.blob bytes must never panic, reading it
# must never write, and its serving index must agree with its tree index;
# an index line the exact parser reads must read the same through
# encoding/json, and every line the store writes must read back; opening
# a build shard's checkpoint or a watch state directory from an arbitrary
# state.json must fail or yield a consistent state (stored documents
# within the store, the accumulator folding exactly them), never panic,
# and never touch a path outside the directory. Go allows one -fuzz target
# per invocation, so each gets its own short run.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzHTMLParse -fuzztime $(FUZZTIME) ./internal/htmlparse/
	$(GO) test -run '^$$' -fuzz FuzzTidy -fuzztime $(FUZZTIME) ./internal/tidy/
	$(GO) test -run '^$$' -fuzz FuzzConvert -fuzztime $(FUZZTIME) ./internal/convert/
	$(GO) test -run '^$$' -fuzz FuzzCanonicalXML -fuzztime $(FUZZTIME) ./internal/xmlout/
	$(GO) test -run '^$$' -fuzz FuzzCompile -fuzztime $(FUZZTIME) ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzTreeDistance -fuzztime $(FUZZTIME) ./internal/mapping/
	$(GO) test -run '^$$' -fuzz FuzzMinePaths -fuzztime $(FUZZTIME) ./internal/schema/
	$(GO) test -run '^$$' -fuzz FuzzFoldSubtract -fuzztime $(FUZZTIME) ./internal/schema/
	$(GO) test -run '^$$' -fuzz FuzzDiskStoreOpen -fuzztime $(FUZZTIME) ./internal/repository/
	$(GO) test -run '^$$' -fuzz FuzzIndexLine -fuzztime $(FUZZTIME) ./internal/repository/
	$(GO) test -run '^$$' -fuzz FuzzShardState -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzWatchState -fuzztime $(FUZZTIME) ./internal/watch/

# Every Go benchmark of the module (E1-E5 micro/macro benchmarks and the
# rest). Per-layer numbers come from `bash perfbench/run.sh --trace 1`.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Convert-stage throughput snapshot: runs the hot-path benchmarks (3
# repeats, min kept) and writes BENCH_convert.json with commit/platform
# metadata via cmd/benchdiff. Compare two snapshots with
#   go run ./cmd/benchdiff -old base.json -new head.json -threshold 15
bench-convert:
	$(GO) test -run '^$$' -bench $(CONVERT_BENCH) -benchmem -count 3 ./... \
		| tee /tmp/bench_convert.txt
	$(GO) run ./cmd/benchdiff -parse -out BENCH_convert.json /tmp/bench_convert.txt

# Mapping/mining hot-path snapshot: the memoized tree-edit distance, the
# compiled conformance pass, and the path miner. Written as
# BENCH_map.json (same benchdiff shape as BENCH_convert.json) and gated in
# the CI bench-regression job at the 15% threshold.
MAP_BENCH = 'BenchmarkTreeDistance|BenchmarkConform|BenchmarkDiscover'
bench-map:
	$(GO) test -run '^$$' -bench $(MAP_BENCH) -benchmem -count 3 \
		./internal/mapping/ ./internal/schema/ | tee /tmp/bench_map.txt
	$(GO) run ./cmd/benchdiff -parse -out BENCH_map.json /tmp/bench_map.txt

# Serving-latency snapshot: `webrev build` writes a 200-document
# repository directory, then webrevd's load-test harness drives 64
# concurrent clients against it with background snapshot swaps, each a
# reload of the directory as in follow mode (ServeMixed rows), then a
# 4x-overload pass into a tiny admission limit (ServeOverload goodput/p99
# rows), and writes the result as BENCH_serve.json (same file shape as
# bench-convert, so cmd/benchdiff compares it directly).
bench-serve:
	$(GO) build -o bin/webrev ./cmd/webrev
	rm -rf .scale/serve
	bin/webrev build -n 200 -seed 1 -dir .scale/serve > /dev/null
	$(GO) run ./cmd/webrevd -repo .scale/serve/final -bench \
		-clients 64 -duration 3s -swap-every 500ms -out BENCH_serve.json

# Statement-coverage gate over the hot-path packages. The coverprofile is
# a build product, not a source: it goes under the git-ignored .cover/
# directory (published from there as a CI artifact) and fails below
# COVER_FLOOR percent.
coverage:
	mkdir -p .cover
	$(GO) test -coverprofile .cover/cover.out -covermode atomic $(addprefix ./,$(subst webrev/,,$(COVER_PKGS)))
	$(GO) run ./cmd/covercheck -profile .cover/cover.out -floor $(COVER_FLOOR) $(COVER_ARGS)

# One iteration of the batch-vs-streaming build benchmarks over a small
# corpus: proves the streaming path still runs end to end without paying
# for full benchmark statistics (the `make check` smoke leg).
bench-stream-short:
	$(GO) test -run '^$$' -bench 'Benchmark(Batch|Stream)Build' -benchtime 1x -short .

# Documentation gate: every package needs a package comment and every
# exported identifier of the webrev facade needs a doc comment.
docs-lint:
	$(GO) run ./cmd/docslint

# Fault-isolation gate: inject panics, errors and delays into the convert
# and map stages of both build paths and require the build to finish with
# the failures quarantined and the surviving output byte-identical to a
# clean run; also kills and resumes a checkpointed streaming build. See
# ARCHITECTURE.md, "Failure domains & recovery".
chaos:
	$(GO) test -short -run 'TestChaos|TestBuildStreamCheckpoint' ./internal/core/

# Continuous-operation chaos gate: a seeded template-mutation sweep
# rewrites ~20% of a site's templates mid-watch; the next cycle must detect
# every mutated page, emit a drift report matching the pinned golden
# (internal/watch/testdata/chaos_drift.golden), keep the quarantine budget
# untouched, and resume cleanly from its state directory after a kill. The
# watch crash tests run with it: a save killed before its manifest rename,
# or after it but before the old store is removed, must leave a state
# directory the next cycle resumes from — matching a cold build, and
# leaving only the manifest and its store. See ARCHITECTURE.md §7,
# "Continuous operation".
chaos-drift:
	$(GO) test -run 'TestWatchChaosDrift|TestWatchSaveCrash' ./internal/watch/

# Serving-layer chaos gate, always under -race: 4x overload must shed with
# 503s while admitted requests keep a bounded p99, injected handler panics
# and corrupt/panicking reloads must kill neither the process nor the
# serving generation, and a drain must finish every in-flight request. See
# ARCHITECTURE.md, "Overload & drain".
chaos-serve:
	$(GO) test -race -run TestChaos ./internal/serve/

# Recrawl-cycle snapshot: steady-state (all-304) and 20%-delta watch cycles
# against the cold full-rebuild baseline, written as BENCH_recrawl.json for
# the CI bench-regression job.
bench-recrawl:
	$(GO) test -run '^$$' -bench BenchmarkRecrawl -benchmem -count 3 \
		./internal/watch/ | tee /tmp/bench_recrawl.txt
	$(GO) run ./cmd/benchdiff -parse -out BENCH_recrawl.json /tmp/bench_recrawl.txt

# Scale-gate parameters. SCALE_BUDGET_KB is the committed peak-RSS budget
# for the smoke-scale sharded build: the 10k run measures ~51 MB on a
# clean tree, so 128 MB leaves GC headroom while still failing fast if the
# flat-memory property breaks (a resident corpus, an unbounded cache).
SCALE_DOCS ?= 10000
SCALE_SEED ?= 1
SCALE_SHARDS ?= 2
SCALE_BUDGET_KB ?= 131072
SCALE_CORPUS ?= .scale/corpus
SCALE_DIR ?= .scale/work

# Scale-smoke gate: a 10k-document, 2-shard, disk-backed build must finish
# under the committed peak-RSS budget (enforced by cmd/rsscheck around the
# compiled binary — never `go run`, whose rusage measures the toolchain)
# and produce output byte-identical to the single-process in-memory build.
# The corpus is stamped by cmd/corpusgen, so -if-stale reuses it across
# runs (and the CI cache restores it keyed on the stamp inputs). The
# -verify pass runs outside the RSS budget: it resumes the already-built
# shards, then materializes the corpus for the in-memory reference build,
# which legitimately uses more memory than the gated sharded path. Last,
# `webrev query` must open the build's final repository directory and
# find matches: every tool reads what the sharded build writes. The query
# asks for `education`, which this corpus's DTD requires in every
# document; its majority schema keeps no `institution` element.
scale-smoke:
	$(GO) build -o bin/webrev ./cmd/webrev
	$(GO) build -o bin/rsscheck ./cmd/rsscheck
	$(GO) build -o bin/corpusgen ./cmd/corpusgen
	bin/corpusgen -n $(SCALE_DOCS) -seed $(SCALE_SEED) -out $(SCALE_CORPUS) -if-stale
	rm -rf $(SCALE_DIR)
	bin/rsscheck -budget-kb $(SCALE_BUDGET_KB) bin/webrev build \
		-corpus $(SCALE_CORPUS) -shards $(SCALE_SHARDS) -dir $(SCALE_DIR)
	bin/webrev build -corpus $(SCALE_CORPUS) -shards $(SCALE_SHARDS) \
		-dir $(SCALE_DIR) -verify
	bin/webrev query -repo $(SCALE_DIR)/final '//education' > $(SCALE_DIR)/query.out
	tail -n 1 $(SCALE_DIR)/query.out | awk '{ print } $$1 == 0 { exit 1 }'

# Sharded-build scaling snapshot: a smoke-scale synthetic sharded build's
# wall/rss_kb/disk_bytes rows merged into BENCH_shard.json (the committed
# file also carries the 100k and 1M sweep rows from `webrev build
# -bench-out`). The CI bench-regression job regenerates this row on the PR
# head and its merge base and gates the wall-clock delta at 25%.
bench-shard:
	$(GO) build -o bin/webrev ./cmd/webrev
	rm -rf .scale/bench
	bin/webrev build -n $(SCALE_DOCS) -seed $(SCALE_SEED) -shards $(SCALE_SHARDS) \
		-dir .scale/bench -bench-out BENCH_shard.json

# Code size next to the benches: non-test Go code lines of this module per
# package directory, then the total. Blank lines and comment-only lines do
# not count. The perfbench/ harness is its own module and is left out. The
# CI bench-regression job prints it for the PR head and its merge base.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './perfbench/*' | \
		xargs awk '/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
			{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d]++; total++ } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				printf "%7d  total\n", total }'

# CI matrix legs: the workflow splits `make check` into three parallel
# jobs per Go version. Locally, `make check` remains their union.
ci-test: build vet test

ci-race-chaos: race chaos chaos-drift chaos-serve

ci-fuzz-docs: fuzz docs-lint bench-stream-short

check: build vet test race fuzz docs-lint chaos chaos-drift chaos-serve bench-stream-short
