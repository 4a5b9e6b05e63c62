GO ?= go

.PHONY: check build vet lint depscheck test examples race fuzz gobench chaos chaos-service crashtest loadtest benchtest

# The gate CI runs: vet + stdlib-only dependency check + determinism
# lint + full test suite + the example programs + race + the
# fixed-seed chaos sweep + the service chaos harness + the
# crash-consistency enumeration + the rmscaled load iteration + the
# benchmark's own test suite.
check: vet depscheck lint test examples race chaos chaos-service crashtest loadtest benchtest

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

# The custom determinism/model-coverage analyzers (see DESIGN.md,
# "Determinism invariants"). One process runs all seven: the full-
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

# Race-check the whole module; -short keeps the smoke-fidelity
# experiment runs out of the race build, which would otherwise
# dominate the wall clock. The service layer (worker shards, condition
# variables, store GC, supervision) additionally runs its full suite
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
# client disconnects, store corruption, journal tears and flaky disk
# writes against live rmscaled daemons; every result must come back
# byte-identical to a fault-free reference. The report is the CI
# artifact; any violated assertion exits non-zero.
chaos-service: build
	$(GO) run ./cmd/rmscaled chaos -specs 12 -clients 3 -v -report chaos_report.json

# Crash-consistency enumeration: canonical journal/store workloads run
# on a simulated filesystem, a power cut is enumerated at every
# filesystem op (plus torn/garbled tails of the final append), and the
# persistence layer restarts on each materialized disk image. Recovery
# must always succeed, never serve wrong bytes, and never lose an
# acknowledged durable result. The report is the CI artifact; any
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
