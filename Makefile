# kronlab build / test / bench entry points. Everything is plain go tool
# invocations; the Makefile just names the common ones.

GO ?= go

.PHONY: all build test loc race vet fmt-check check-regexes bench-route allocguard clean recovery-soak head-soak fuzz-smoke lint cluster-smoke

all: build test

build:
	$(GO) build ./...

# Tier-1 on one core and on several (a stream that only stalls when ranks
# really run in parallel must fail here, not in production), then the
# benchmark harness — a nested module `./...` never reaches. -count=1:
# GOMAXPROCS is not part of the test cache's key, so without it the second
# line is answered from the first line's results and never runs.
test:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...
	$(GO) vet -C bench .
	$(GO) test -C bench .

# Non-test Go lines per package, one line each — the number ROADMAP aim 2
# tracks. Quote it before/after in CHANGES.md when a PR moves it.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | while read pkg dir files; do \
		printf '%6d %s\n' $$(cd $$dir && cat $$files | wc -l) $$pkg; \
	done

race:
	$(GO) test -race ./...

# The second line cross-compiles (stdlib only, works offline) so the
# portable bodies of the expansion kernels — which amd64 never links —
# cannot rot;
# the first already runs asmdecl over expand_amd64.s. The third builds and
# tests the kernel with the compiler allowed AVX2 everywhere (GOAMD64=v3):
# the assembly still picks its loop at run time, and must not care.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/core/
	GOAMD64=v3 $(GO) build ./... && GOAMD64=v3 $(GO) test ./internal/core/

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Stale test-selector check: every |-alternative of every -run, -bench and
# -fuzz regex a go test line of this Makefile or of ci.yml passes must
# select at least one test of its packages (go test -list). Mirrors the CI
# step.
check-regexes:
	sh scripts/check_test_regexes.sh

# Supervised-recovery soak: the crash-then-recover suites (every test whose
# name holds Recover, the replay that resumes at stored prefixes included)
# under the race detector, mirroring the CI job.
recovery-soak:
	$(GO) test -race -count 1 -timeout 6m -run 'Recover' ./internal/dist/

# Head-death soak: the multi-process head kill+respawn suite, the run
# ledger, and the partition/heartbeat failure-detection tests (the head's
# wait on a silent worker's control link included), repeated under the
# race detector. The -timeout is a hard stop — a respawned
# head that never converges or a worker that parks forever must fail the
# run, not hang it.
head-soak:
	$(GO) test -race -count 5 -timeout 8m \
		-run 'ClusterHeadKill|Ledger|Partition|Heartbeat|FailureDetection' ./internal/dist/...

# Short fuzzing pass: every Fuzz* harness for a few seconds each, so the
# corpora stay loadable and cheap wins (a ledger replay panic on
# arbitrary bytes, a frame decode crash) surface without a fuzz farm.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime 5s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime 5s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzNew -fuzztime 5s ./internal/graph/
	$(GO) test -run '^$$' -fuzz FuzzChainIndex -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzExpand -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 5s ./internal/dist/transport/wire/
	$(GO) test -run '^$$' -fuzz FuzzLedgerReplay -fuzztime 5s ./internal/dist/ledger/
	$(GO) test -run '^$$' -fuzz FuzzBySourceAdditive -fuzztime 5s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzSourceMapAdditive -fuzztime 5s ./internal/store/

# Lint the concurrency-heavy dist package. staticcheck is optional
# locally (CI installs a pinned version); vet always runs.
lint:
	$(GO) vet ./internal/dist/
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./internal/dist/; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Multi-process cluster smoke: a 4-process krongen TCP cluster on
# localhost against a single-process reference run, failing unless the
# two stores hold the identical edge set. Mirrors the CI job.
cluster-smoke:
	sh scripts/cluster_local.sh

# Placement gate: BenchmarkRoute times owner-side generation (every rank's
# walk in turn), the same walk at R = 1 (ownerSideOne: one rank owns every
# row, the pick copies nothing) and the bare expansion over the same tiles
# in one process — every row generates every arc once, so every row
# includes expansion — so the checks are ratios that survive a change of
# machine: generating OwnerBySource's arcs where they are stored must cost
# no more than three times the same walk at R = 1 and no more than 3.5
# times the bare expansion (the expand row, ExpandNextPacked), with 0 allocs/op
# on every row but engine. Every row is in packed blocks, as the engine
# walks every product: the walk and the cursor read the
# factor in one layout through one primitive (core.ExpandSourceTo: narrow
# where the probe found AVX-512, packed elsewhere), so ownerSide / expand is
# the walk's whole cost of placing. The ungated expandPacked row is expand's
# loop over the factor's packed arcs: the summary prints expand /
# expandPacked (what the narrow source saves; 1 off AVX-512) beside the
# kernel tier the expand row logs.
# ownerSide's innermost factor has 128 vertices; ownerSideOdd is the same
# arcs on 129 vertices, where OwnerBySource's map pads the innermost digit
# to 256, and it now runs the same class pick, held to the same ≤ 3.5 ×
# expand and skew bound (ownerSideBlock, BlockOwner's range pick, is
# printed beside it, not gated). Before the padded map ownerSideOdd picked
# each sweep's rows one by one; ten runs on a 2-CPU AVX-512 VM read
# ownerSide / expand 1.25–1.44 (median 1.40; 1.65–2.68 when every pick was
# per-row), ownerSide / ownerSideOne 1.27–1.40, ownerSideOdd / expand
# 1.76–2.08 (median 1.98) in wide blocks; in packed blocks, where expand
# costs half and the per-row pick what it did, five runs read 1.84–1.91,
# 1.70–1.81 and 3.00–3.28. With the per-row pick a compare a row against
# the class at s0 and the walks on the 256-bit loop on every host, ten runs
# a tier on the same VM under load read ownerSideOdd / expand 2.36–3.29
# (AVX2; AVX-512 hosts run the same loops) and 1.73–2.39 (SSE2), where the
# previous pick on the 512-bit loop read 2.58–4.86. Balance is gated by a count, not a clock: the
# ownerSide and ownerSideOdd rows' skew — the busiest rank's arcs over the
# ideal 1/R share, what a run's wall follows — must be ≤ 1.10 (they read
# 1.004 and 1.006; the hash reduced by remainder read 1.86). The tinyInner row is the stated worst case (a
# 4-vertex innermost factor at R = 16); it is printed, not gated. The engine
# row is Run itself (no owner, a CountSink, the product on one rank): the
# expand row's work plus the engine's per-block path — the sink call
# through the fence and one atomic load — and one run's set-up, which is
# why it alone allocates (59 allocs/op; make allocguard guards those). It
# must cost ≤ 2 × expand: ten runs on the same 2-CPU VM read 0.82–1.15
# (median 1.09) when it was quiet and 0.74–1.56 under load (1.20–1.26 in
# packed blocks, five runs), where the loop
# that swapped two goroutine labels and polled a channel per block read
# 1.25–1.68 (median 1.26) in ten runs of the same row — a bound that
# catches a per-block cost the size of the kernel call, not one of a
# quarter of it, without flaking on a loaded box. Mirrors the CI step.
bench-route:
	$(GO) test -run '^$$' -bench BenchmarkRoute -benchtime 50x -benchmem ./internal/dist/ | awk ' \
		{ print } \
		/^BenchmarkRoute\// { skew = ""; for (i = 2; i <= NF; i++) { \
			if ($$i == "ns/edge") ns = $$(i-1); \
			if ($$i == "skew") skew = $$(i-1); \
			if ($$i == "allocs/op" && $$(i-1) != 0 && $$1 !~ /^BenchmarkRoute\/engine/) bad = 1 } } \
		/^BenchmarkRoute\/ownerSide(-[0-9]+)?[ \t]/ { own = ns; ownskew = skew } \
		/^BenchmarkRoute\/ownerSideOne(-[0-9]+)?[ \t]/ { one = ns } \
		/^BenchmarkRoute\/ownerSideOdd(-[0-9]+)?[ \t]/ { odd = ns; oddskew = skew } \
		/^BenchmarkRoute\/ownerSideBlock(-[0-9]+)?[ \t]/ { blk = ns } \
		/^BenchmarkRoute\/expand(-[0-9]+)?[ \t]/ { bare = ns } \
		/^BenchmarkRoute\/expandPacked(-[0-9]+)?[ \t]/ { pk = ns } \
		/core\.Kernel\(\) = / { kern = $$NF } \
		/^BenchmarkRoute\/engine/ { eng = ns } \
		END { \
			if (own == "" || one == "" || odd == "" || bare == "" || eng == "" || ownskew == "" || oddskew == "" || bad || own + 0 > 3 * one || own + 0 > 3.5 * bare || ownskew + 0 > 1.10 || odd + 0 > 3.5 * bare || oddskew + 0 > 1.10 || eng + 0 > 2 * bare) { \
				print "bench-route: FAIL — rows missing, a row other than engine allocates, ownerSide costs more than 3 × ownerSideOne or than 3.5 × expand, ownerSideOdd more than 3.5 × expand, the skew of either is over 1.10, or engine costs more than 2 × expand"; exit 1 } \
			printf "bench-route: ownerSide / ownerSideOne = %.2f, ownerSide / expand = %.2f, ownerSide skew = %.3f, ownerSideOdd / expand = %.2f, ownerSideOdd skew = %.3f, ownerSideBlock / expand = %.2f, engine / expand = %.2f, expand / expandPacked = %.2f, kernel %s\n", own / one, own / bare, ownskew, odd / bare, oddskew, blk / bare, eng / bare, bare / pk, kern }'

# Allocation regression guard on the end-to-end generation benchmarks:
# fails when allocs/op exceeds the committed allocguard_baseline.txt by
# more than 20%, or when no row could be compared. Mirrors the CI step.
allocguard:
	sh scripts/allocguard.sh

clean:
	$(GO) clean ./...
