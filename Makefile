GO ?= go

.PHONY: all build test race vet loc bench bench-kernels bench-table1 bench-scale bench-check bench-selftest bench-full scale scale-smoke chaos-smoke crash-smoke scenario-smoke obs-smoke profile profile-drl examples-smoke clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# loc prints the non-test, non-blank, non-comment Go line count per package
# (bench/ is a module of its own and is left out) — the figure CHANGES.md
# quotes for size claims.
loc:
	@total=0; \
	for d in $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs -n1 dirname | sort -u); do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l); \
		printf '%6d %s\n' $$n $$d; total=$$((total+n)); \
	done; printf '%6d total\n' $$total

# The kernel micro-benchmark set (also the CI perf-regression smoke).
KERNEL_BENCH = BenchmarkMatMulVec$$|BenchmarkMatMulMat$$|BenchmarkQNetInferBatch$$|BenchmarkQNetworkInference$$|BenchmarkQNetworkTrainBatch$$|BenchmarkLSTMPredict$$|BenchmarkLSTMBPTT$$|BenchmarkLSTMBPTTCompact$$|BenchmarkEventLoop$$|BenchmarkSnapshot$$|BenchmarkAllocateEpoch$$|BenchmarkShardedEpoch$$|BenchmarkRequeueLargePending$$|BenchmarkTDigestAdd$$|BenchmarkTDigestMerge$$|BenchmarkEpochSpanRecord$$
KERNEL_PKGS = . ./internal/telemetry

# bench records the full perf trajectory of a PR as three committed JSONs:
#   BENCH_kernels.json — kernel + hot-path micro-benchmarks
#   BENCH_table1.json  — the end-to-end Table I run (ns/op, allocs/op, bytes)
#   BENCH_scale.json   — the scale-10k preset at P=1/2/4/8 shards
# (benchstat-compatible: the "raw" arrays hold the verbatim benchmark lines.)
bench: bench-kernels bench-table1 bench-scale

bench-kernels:
	$(GO) test -run=NONE \
		-bench='$(KERNEL_BENCH)' \
		-benchmem -count=3 $(KERNEL_PKGS) | $(GO) run ./cmd/benchjson > BENCH_kernels.json
	@echo wrote BENCH_kernels.json

bench-table1:
	$(GO) test -run=NONE -bench='BenchmarkTable1_M30$$' -benchtime=1x -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson > BENCH_table1.json
	@echo wrote BENCH_table1.json

bench-scale:
	$(GO) run ./cmd/scalebench -shards 1,2,4,8 -json BENCH_scale.json

# bench-check is the CI perf-regression smoke: rerun the kernel set plus the
# Table I benchmark and gate against the committed baselines (alloc-count
# growth always fails; >15% ns/op fails when the cpu matches the baseline's,
# and is a warning across different machines).
bench-check:
	( $(GO) test -run=NONE -bench='$(KERNEL_BENCH)' -benchmem -count=3 $(KERNEL_PKGS) ; \
	  $(GO) test -run=NONE -bench='BenchmarkTable1_M30$$' -benchtime=1x -benchmem -count=1 . ) \
		| $(GO) run ./cmd/benchguard BENCH_kernels.json BENCH_table1.json

# bench-selftest vets and tests bench/, the repository benchmark. It is a
# module of its own (replace hierdrl => ../), so `go test ./...` never compiles
# it and a change to the public API could otherwise break it unnoticed (~10 s).
bench-selftest:
	cd bench && $(GO) vet . && $(GO) test .

# scale prints the sharded engine's speedup table for the scale-10k preset
# at P = 1..NumCPU on this machine; scale-smoke is the reduced CI variant
# (small runners: 2 shards, 1/5 cluster, 1/10 workload).
scale:
	$(GO) run ./cmd/scalebench -cpus

scale-smoke:
	$(GO) run ./cmd/scalebench -shards 1,2 -m 2000 -jobs 200000

# chaos-smoke is the fault-injection CI gate: the observer hammer (crash/
# repair/retry/degrade/drain hooks plus mid-run snapshots at P = 1/2/4), the
# cross-run bitwise reproducibility checks, and the fault-matrix smoke
# (correlated-crash / degrade / maintenance-drain at P = 1/2, fingerprint-
# pinned) and the pending queue's differential test against the insertion-sort
# model (retry re-insertion order), all under the race detector; then a few
# seconds of the native fuzz target over the same differential check.
chaos-smoke:
	$(GO) test -race -run 'TestFaultObserverHammer|TestFaultMatrixObserverHammer|TestFaultReproducibleAcrossRuns|TestNewFaultModelsReproducibleAcrossRuns|TestPendingQueueMatchesInsertionSortModel' -v .
	$(GO) test -run=NONE -fuzz='FuzzPendingQueueOrder$$' -fuzztime=5s .

# crash-smoke is the durability CI gate: the mid-run checkpoint/restore
# bitwise matrix across both tiers (incl. fault runs), the corrupt-snapshot
# rejection table, and the end-to-end SIGKILL-and-resume drill against the
# hiersim binary; then, under the race detector, the fault run checkpointed
# right after a head-side retry insert and resumed at P = 1/2, the
# parent-written golden snapshots re-emitted byte for byte (format pin), and
# every state walk over every strict prefix of its own payload; then a few
# seconds of FuzzRestoreState. Its minimization budget is capped: the fuzz
# engine's default spends up to 60 s shrinking each new 20-50 KB snapshot it
# finds interesting, during which it reports 0 execs/s.
crash-smoke:
	$(GO) test -run 'TestCheckpointResumeBitwise|TestRestoreRejectsCorruptSnapshots|TestAutoCheckpointRotationAndResume|TestCrashResumeHarnessCLI' -v .
	$(GO) test -race -run 'TestCheckpointAfterHeadSideInsert|TestGoldenSnapshotsByteIdentical|TestStateWalksRejectEveryPrefix' -v .
	$(GO) test -run=NONE -fuzz='FuzzRestoreState$$' -fuzztime=5s -fuzzminimizetime=200x .

# scenario-smoke is the workload-subsystem CI gate: every registered
# scenario's Summary must be bitwise identical at P = 1/2/4 shards and run to
# run, the scenario CSV round trip must replay bit for bit, and a single-class
# speed-1.0 cluster must match the homogeneous cluster exactly — all under
# the race detector.
scenario-smoke:
	$(GO) test -race -run 'TestScenarioBitwiseAcrossShards|TestScenarioCSVRoundTrip|TestHomogeneousClassesBitwiseIdentical' -v .

# obs-smoke is the observability CI gate: the live /metrics + /snapshot scrape
# of a sharded fault run with a t-digest p99 accuracy check, the Chrome
# trace-event dump, the telemetry-is-bitwise-invisible pin, and the
# sketch-checkpoint round trip — all under the race detector — plus the
# telemetry package's own zero-alloc and merge-determinism pins.
obs-smoke:
	$(GO) test -race -run 'TestObsSmoke|TestTelemetryPreservesBitwiseMetrics|TestSketchOnlySummary|TestEpochTraceChromeJSON|TestEpochTraceRequiresShards|TestCheckpointRoundTripSketches' -v .
	$(GO) test -race ./internal/telemetry

# bench-full additionally regenerates the paper tables/figures benchmarks
# (minutes, not seconds).
bench-full:
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=1x . | $(GO) run ./cmd/benchjson > BENCH_full.json
	@echo wrote BENCH_full.json

# examples-smoke builds and runs every examples/ program with a tiny job
# count, exercising the public Session/registry API end to end (CI runs it
# so API drift breaks the build, not users).
examples-smoke:
	$(GO) run ./examples/quickstart -jobs 300 -warmup 80
	$(GO) run ./examples/datacenter -servers 6 -jobs 250 -warmup 60
	$(GO) run ./examples/powermanager -jobs 150
	$(GO) run ./examples/tradeoff -jobs 200 -warmup 50
	$(GO) run ./examples/pluggable -jobs 200 -servers 4
	$(GO) run ./examples/scenario -scenario mixed-het -jobs 400

# profile writes CPU and allocation pprof profiles of the headline
# experiment benchmark (inspect with `go tool pprof cpu.pprof`).
profile:
	$(GO) test -run=NONE -bench='BenchmarkTable1_M30$$' -benchtime=3x \
		-cpuprofile cpu.pprof -memprofile mem.pprof -o hierdrl-bench.test .
	@echo wrote cpu.pprof mem.pprof '(binary: hierdrl-bench.test)'

# profile-drl writes the CPU and allocation profiles of one paper-drl pass
# (DRLOnly(30), 8,000 warmup + 44,000 jobs, seed 1 — the repository
# benchmark's global-tier workload), the attribution DESIGN.md §7 and
# EXPERIMENTS.md quote: `go tool pprof -top hierdrl-bench.test cpu-drl.pprof`.
profile-drl:
	$(GO) test -run=NONE -bench='BenchmarkPaperDRLPass$$' -benchtime=3x \
		-cpuprofile cpu-drl.pprof -memprofile mem-drl.pprof -o hierdrl-bench.test .
	@echo wrote cpu-drl.pprof mem-drl.pprof '(binary: hierdrl-bench.test)'

# clean removes only what the targets above leave behind that is not tracked:
# BENCH_kernels.json is the committed baseline bench-check gates against.
clean:
	rm -f BENCH_full.json cpu.pprof mem.pprof cpu-drl.pprof mem-drl.pprof hierdrl-bench.test
