GO ?= go

.PHONY: check build vet lint depscheck test examples resume serve-restart race fuzz gobench chaos chaos-service crashtest loadtest benchtest

# The gate CI runs: vet + stdlib-only dependency check + determinism
# lint + full test suite + the example programs + the kill-and-resume
# checks of rmscale and rmscaled + race + the fixed-seed chaos sweep +
# the service chaos harness + the crash-consistency enumeration + the
# rmscaled load iteration + the benchmark's own test suite.
check: vet depscheck lint test examples resume serve-restart race chaos chaos-service crashtest loadtest benchtest

build:
	$(GO) build ./...

# go vet does not check formatting, so vet also fails when gofmt would
# rewrite any tracked Go file (testdata fixtures are exempt). bench/ is
# a module of its own, which the root ./... skips, so it is vetted
# from inside.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@out=$$($$($(GO) env GOROOT)/bin/gofmt -l $$(git ls-files '*.go' | grep -Ev '(^|/)testdata/')); \
	if [ -n "$$out" ]; then echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi

# The custom determinism analyzers (see DESIGN.md, "Determinism
# invariants"). One process runs all six: the full-
# source typecheck and the call graph are built once and shared, so
# adding an analyzer costs its traversal, not another load. Exits
# non-zero on any finding; the JSON report is the CI artifact.
lint:
	$(GO) run ./cmd/rmslint -json lint_report.json ./...

# The module must keep building from the Go standard library alone (a
# stated constraint of the reproduction — see ROADMAP.md): fail if any
# transitive dependency resolves outside the stdlib and the module
# itself.
depscheck:
	@out=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./... | grep -v '^rmscale' | grep -v '^$$' || true); \
	if [ -n "$$out" ]; then echo "depscheck: non-stdlib dependencies:"; echo "$$out"; exit 1; fi
	@echo "depscheck: standard library only"

test: build
	$(GO) test ./...

# The programs under examples/ are the library's executable contract:
# rmslint's deadcode gate roots the module at them and at cmd/, so each
# must also run to completion. Fails on the first non-zero exit.
examples: build
	@for d in examples/*; do \
		echo "example: $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# Kill-and-resume: smoke case 4 runs once uninterrupted; then into a
# -resume directory under SIGKILL after 0.05, 0.1 and 0.2 s (a kill
# mid-write can orphan .tmp files in the cache); then to completion
# from that directory. Its stdout must be cmp-equal to the
# uninterrupted run's, and its sorted `tuned` lines on stderr
# (evals= included) must match.
resume: build
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/rmscale" ./cmd/rmscale && \
	args="-fidelity smoke -seed 3 -j 4 -v" && \
	"$$d/rmscale" $$args case4 > "$$d/want.out" 2> "$$d/want.err" && \
	for t in 0.05 0.1 0.2; do \
		timeout -s KILL $$t "$$d/rmscale" $$args -resume "$$d/run" case4 > /dev/null 2>&1; \
		case $$? in \
		0) echo "resume: finished before the kill at $$t s";; \
		124|137) echo "resume: killed at $$t s";; \
		*) echo "resume: the run under the $$t s kill failed"; exit 1;; \
		esac; \
	done && \
	"$$d/rmscale" $$args -resume "$$d/run" case4 > "$$d/got.out" 2> "$$d/got.err" && \
	cmp "$$d/want.out" "$$d/got.out" && \
	grep '^tuned' "$$d/want.err" | sort > "$$d/want.tuned" && \
	grep '^tuned' "$$d/got.err" | sort > "$$d/got.tuned" && \
	cmp "$$d/want.tuned" "$$d/got.tuned" && \
	echo "resume: stdout and tuned lines match the uninterrupted run" \
		"($$(find "$$d/run" -name '*.tmp' | wc -l) orphaned .tmp files)"

# Kill-and-restart of the daemon: `rmscaled serve` with one shard over
# a fresh -dir takes eight smoke case specs (cases 4, 1, 2 and 3 at
# seeds 1 and 2), is SIGKILLed once status shows the first one done,
# and is served again over the same -dir, where `submit -wait` collects
# every spec. Each result must be cmp-equal to the same spec's result
# from a fresh daemon, and the restart must resume part of the backlog
# from the journal; the target prints how much.
serve-restart: build
	@d=$$(mktemp -d) && pid= && trap 'test -z "$$pid" || kill -9 $$pid 2>/dev/null; rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/rmscaled" ./cmd/rmscaled && \
	specs="4:1 1:1 2:1 3:1 4:2 1:2 2:2 3:2" && \
	serve() { \
		"$$d/rmscaled" serve -dir "$$d/$$1" -addr 127.0.0.1:0 -shards 1 2> "$$d/$$1.log" & pid=$$!; \
		for i in $$(seq 100); do \
			addr=$$(sed -n 's/^rmscaled: serving on \([^ ]*\) .*/\1/p' "$$d/$$1.log"); \
			test -n "$$addr" && return 0; sleep 0.1; \
		done; echo "serve-restart: rmscaled serve did not start"; return 1; \
	} && \
	stop() { kill -TERM $$pid && wait $$pid; pid=; } && \
	submit() { "$$d/rmscaled" submit -addr "http://$$addr" -kind case -fidelity smoke -case $${1%:*} -seed $${1#*:} $$2; } && \
	collect() { for s in $$specs; do submit $$s -wait > "$$d/$$1.$$s" 2> /dev/null || return 1; done; } && \
	serve run && \
	first=$$(submit 4:1 | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p') && test -n "$$first" && \
	for s in $$specs; do submit $$s > /dev/null || exit 1; done && \
	for i in $$(seq 1000); do \
		"$$d/rmscaled" status -addr "http://$$addr" "$$first" | grep -q '"state":"done"' && break; sleep 0.02; \
	done && \
	kill -9 $$pid && { wait $$pid 2> /dev/null || true; } && pid= && \
	serve run && \
	resumed=$$(sed -n 's/.*"event":"start".*"resumed":\([0-9]*\).*/\1/p' "$$d/run.log") && \
	collect got && stop && serve fresh && collect want && stop && \
	for s in $$specs; do cmp "$$d/want.$$s" "$$d/got.$$s" || exit 1; done && \
	if [ "$$resumed" -gt 0 ]; then \
		echo "serve-restart: 8 results cmp-equal to a fresh daemon's; the restart after SIGKILL resumed $$resumed"; \
	else echo "serve-restart: the restart resumed nothing (the kill missed the backlog, or the journal lost it)"; exit 1; fi

# Race-check the whole module; -short keeps the smoke-fidelity
# experiment runs out of the race build, which would otherwise
# dominate the wall clock. The service layer (worker shards, condition
# variables, group commit, supervision) additionally runs its full suite
# under the detector — it is the module's most concurrent code.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 ./internal/service/...

# Kernel fuzz smoke: 30 s of coverage-guided fuzzing of the dispatch
# loop (FuzzKernelOps against its sorted-slice reference), then 30 s of
# stream seeding (FuzzStreamMatchesMathRand: any sub-seed and any
# Stream method draw exactly what math/rand draws). `go test` only
# replays the seed corpora; this explores past them. Not part of
# `make check`, which stays within its time budget; CI's full job runs
# it.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzKernelOps$$' -fuzztime 30s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzStreamMatchesMathRand$$' -fuzztime 30s

# Trend numbers: the go test benchmarks (kernel micro-benches, stream
# seeding, one default-config engine run per RMS model and the full
# figure pipeline) with allocation stats. The exact and allocation gates are ordinary
# tests in `make test`; paired end-to-end timings come from bench/.
gobench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sim ./internal/rms .

# Fixed-seed chaos sweep: 32 random fault schedules across all RMS
# models under the runtime invariant auditor. Any violation is
# replayed, shrunk to a minimal reproducer and fails the target.
chaos: build
	$(GO) run ./cmd/rmscale -chaos 32 -seed 1

# Service chaos harness: scripted executor panics/hangs/failures,
# client disconnects, result-log corruption, a torn journal log and
# flaky disk writes against live rmscaled daemons; every result must come back
# byte-identical to a fault-free reference. The report is the CI
# artifact; any violated assertion exits non-zero.
chaos-service: build
	$(GO) run ./cmd/rmscaled chaos -specs 12 -clients 3 -v -report chaos_report.json

# Crash-consistency enumeration: canonical workloads against rmscaled's
# two stores (submission journal and results) run on a simulated
# filesystem, a power cut is enumerated at every filesystem op (plus
# torn/garbled tails of the final append), and both stores reopen on
# each materialized disk image. Recovery must always succeed, never
# serve wrong bytes, and never lose an acknowledged durable record. The report is the CI artifact; any
# violated invariant exits non-zero.
crashtest: build
	$(GO) run ./cmd/rmscaled crashtest -v -report crashtest_report.json

# rmscaled load iteration at its qualifying scale: 1000 objects over
# 125 distinct specs from 8 clients through the full HTTP service
# (submit / stream / fetch). The harness audits the daemon's books and
# exits non-zero unless executions, dedup hits and stored results
# match the shape exactly.
loadtest: build
	$(GO) run ./cmd/rmscaled loadtest -v > loadtest_report.json

# The end-to-end benchmark's self-test. bench/ is a module of its own,
# so `go test ./...` at the root skips it; its suite checks that the
# sweep replay matches RunCaseSpec for every model, that the pinned
# figure digests still hold and that the serve workloads run.
benchtest:
	cd bench && $(GO) test ./...
