GO ?= go

.PHONY: all build test race vet loc bench bench-selftest chaos-smoke crash-smoke scenario-smoke obs-smoke profile profile-drl profile-hier examples-smoke clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is where the goroutines off the event lane meet the race detector:
# Study's worker pool, each LSTM training round, and the DRL agent's
# train-step helper (GOMAXPROCS=1 is their serial schedule: no helper starts
# and every train-step task runs inline, the CI golden step's setting).
race:
	$(GO) test -race ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# loc prints the non-test, non-blank, non-comment Go line count per package
# (bench/ is a module of its own and is left out) — the figure CHANGES.md
# quotes for size claims — then, outside that total, the non-blank,
# non-comment lines of hand-written assembly.
loc:
	@total=0; \
	for d in $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs -n1 dirname | sort -u); do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l); \
		printf '%6d %s\n' $$n $$d; total=$$((total+n)); \
	done; printf '%6d total\n' $$total; \
	printf '%6d asm\n' $$(find . -name '*.s' -not -path './.bench_build/*' | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l)

# bench runs the repository benchmark (BENCHMARK.json: seven workloads, result
# JSON on the last stdout line) — the one place a wall-time number is recorded;
# `bench compare` reports two runs side by side. Allocation counts are pinned
# by the AllocsPerRun tests that plain `go test ./...` runs.
bench:
	bash bench/run.sh

# bench-selftest vets and tests bench/, the repository benchmark. It is a
# module of its own (replace hierdrl => ../), so `go test ./...` never compiles
# it and a change to the public API could otherwise break it unnoticed (~10 s).
bench-selftest:
	cd bench && $(GO) vet . && $(GO) test .

# chaos-smoke is the fault-injection CI gate: the observer hammer (crash/
# repair/retry/degrade/drain hooks plus mid-run snapshots), the cross-run
# bitwise reproducibility checks, and the fault-matrix smoke
# (correlated-crash / degrade / maintenance-drain, fingerprint-pinned) and
# the pending queue's differential test against the insertion-sort model
# (retry re-insertion order) and the order the fault callbacks fire in
# relative to the retries they cause, all under the race detector; then a few seconds
# of the native fuzz target over the same differential check.
chaos-smoke:
	$(GO) test -race -run 'TestFaultObserverHammer|TestFaultMatrixObserverHammer|TestFaultReproducibleAcrossRuns|TestNewFaultModelsReproducibleAcrossRuns|TestPendingQueueMatchesInsertionSortModel|TestObserverCallbackOrder' -v .
	$(GO) test -run=NONE -fuzz='FuzzPendingQueueOrder$$' -fuzztime=5s .

# crash-smoke is the durability CI gate: the mid-run checkpoint/restore
# bitwise matrix (incl. fault runs), the corrupt-snapshot rejection table,
# the sweep that drives every one-word rewrite of a small snapshot's cluster
# and metrics sections through Drain to Result (~2 s, un-raced), the final
# generation a cancelled auto-checkpointing run writes (and the error when
# that write fails), and the end-to-end SIGKILL-and-resume and
# SIGINT-and-resume drills against the hiersim binary;
# then, under the race detector, the fault run checkpointed right after a
# head-side retry insert and resumed, the golden snapshots
# re-emitted byte for byte (format v13 pin) and the earlier formats' refused, and
# every state walk over every strict prefix of its own payload; then a few
# seconds each of FuzzRestoreState and FuzzRestoreResealed (one word of a
# section rewritten under a recomputed CRC). FuzzRestoreState's minimization
# budget is capped: the fuzz engine's default spends up to 60 s shrinking each
# new 20-50 KB snapshot it finds interesting, during which it reports 0
# execs/s (FuzzRestoreResealed's inputs are four scalars); then a few seconds
# of FuzzRNGMatchesPCG, mat.RNG's copy of PCG against math/rand/v2 (every
# restored pair of state words continues that stream); then a few seconds of
# FuzzCodecDecode, arbitrary bytes through one walk over every
# checkpoint.Codec primitive (ErrCorrupt, or a decode that re-encodes to
# exactly the bytes it read).
crash-smoke:
	$(GO) test -run 'TestCheckpointResumeBitwise|TestRestoreRejectsCorruptSnapshots|TestResealedWordsNeverPanicResult|TestAutoCheckpointRotationAndResume|TestAutoCheckpointFlushesOnCancel|TestCrashResumeHarnessCLI|TestInterruptResumeHarnessCLI' -v .
	$(GO) test -race -run 'TestCheckpointAfterHeadSideInsert|TestGoldenSnapshotsByteIdentical|TestStateWalksRejectEveryPrefix' -v .
	$(GO) test -run=NONE -fuzz='FuzzRestoreState$$' -fuzztime=5s -fuzzminimizetime=200x .
	$(GO) test -run=NONE -fuzz='FuzzRestoreResealed$$' -fuzztime=5s .
	$(GO) test -run=NONE -fuzz='FuzzRNGMatchesPCG$$' -fuzztime=5s ./internal/mat/
	$(GO) test -run=NONE -fuzz='FuzzCodecDecode$$' -fuzztime=5s ./internal/checkpoint/

# scenario-smoke is the workload-subsystem CI gate: every registered
# scenario's Summary must be bitwise identical run to run, the scenario CSV
# round trip must replay bit for bit, and a single-class speed-1.0 cluster
# must match the homogeneous cluster exactly — all under the race detector;
# then a few seconds of FuzzWorkloadSource (every workload config that
# validates yields exactly NumJobs valid jobs in arrival order) and of
# FuzzReadTraceCSV (arbitrary bytes through the trace CSV reader: an error, or
# a valid trace that comes back bit for bit through the writer).
scenario-smoke:
	$(GO) test -race -run 'TestScenarioBitwiseRunToRun|TestScenarioCSVRoundTrip|TestHomogeneousClassesBitwiseIdentical' -v .
	$(GO) test -run=NONE -fuzz='FuzzWorkloadSource$$' -fuzztime=5s ./internal/workload/
	$(GO) test -run=NONE -fuzz='FuzzReadTraceCSV$$' -fuzztime=5s .

# obs-smoke is the observability CI gate: the live /metrics + /snapshot scrape
# of a fault run with a check of the published p99 against the histogram's
# 2^-7 error bound, the same bound on a run's Summary P50/P95/P99, the Chrome
# trace-event dump of a default-tier run, the telemetry-is-bitwise-invisible
# pin, and the histogram-checkpoint round trip — all under the race detector —
# plus the whole telemetry package: its error-bound and zero-alloc pins and
# TestLatencyIsClassSum (the overall latency histogram, derived from the class
# histograms, against one fed every latency); then a few
# seconds of FuzzSketchState (arbitrary bytes through the histogram decoder:
# ErrCorrupt, or a decode that re-encodes to exactly the bytes it read).
obs-smoke:
	$(GO) test -race -run 'TestObsSmoke|TestTelemetryPreservesBitwiseMetrics|TestSummaryQuantilesWithinBound|TestEpochTraceChromeJSON|TestEpochTraceOnDefaultSession|TestCheckpointRoundTripSketches' -v .
	$(GO) test -race ./internal/telemetry
	$(GO) test -run=NONE -fuzz='FuzzSketchState$$' -fuzztime=5s ./internal/telemetry/

# examples-smoke builds and runs every examples/ program with a tiny job
# count, exercising the public Session/registry API end to end, then every
# table of cmd/experiments at bench scale over two seeds, plus the two tables
# -exp all skips, faultsweep and scenarios (~7 s; CI runs it so API drift
# breaks the build, not users).
examples-smoke:
	$(GO) run ./examples/quickstart -jobs 300 -warmup 80
	$(GO) run ./examples/datacenter -servers 6 -jobs 250 -warmup 60
	$(GO) run ./examples/powermanager -jobs 150
	$(GO) run ./examples/tradeoff -jobs 200 -warmup 50
	$(GO) run ./examples/pluggable -jobs 200 -servers 4
	$(GO) run ./examples/scenario -scenario mixed-het -jobs 400
	$(GO) run ./cmd/experiments -exp all -scale bench -seeds 1,2
	$(GO) run ./cmd/experiments -exp faultsweep -scale bench
	$(GO) run ./cmd/experiments -exp scenarios -scale bench

# profile writes CPU and allocation pprof profiles of the headline
# experiment benchmark (inspect with `go tool pprof cpu.pprof`).
profile:
	$(GO) test -run=NONE -bench='BenchmarkTable1_M30$$' -benchtime=3x \
		-cpuprofile cpu.pprof -memprofile mem.pprof -o hierdrl-bench.test .
	@echo wrote cpu.pprof mem.pprof '(binary: hierdrl-bench.test)'

# profile-drl writes the CPU and allocation profiles of one paper-drl pass
# (DRLOnly(30), 8,000 warmup + 44,000 jobs, seed 1 — the repository
# benchmark's global-tier workload), the attribution CHANGES.md PR 16 quotes
# (DESIGN.md §7 has the kernels' ordering contract):
# `go tool pprof -top hierdrl-bench.test cpu-drl.pprof`.
profile-drl:
	$(GO) test -run=NONE -bench='BenchmarkPaperDRLPass$$' -benchtime=3x \
		-cpuprofile cpu-drl.pprof -memprofile mem-drl.pprof -o hierdrl-bench.test .
	@echo wrote cpu-drl.pprof mem-drl.pprof '(binary: hierdrl-bench.test)'

# profile-hier is profile-drl for one paper-hier pass (Hierarchical(30), 8,000
# warmup + 28,000 jobs, seed 1: the global tier plus thirty LSTM predictors
# and RL power managers), the attribution CHANGES.md PR 24 quotes:
# `go tool pprof -top hierdrl-bench.test cpu-hier.pprof`.
profile-hier:
	$(GO) test -run=NONE -bench='BenchmarkPaperHierPass$$' -benchtime=3x \
		-cpuprofile cpu-hier.pprof -memprofile mem-hier.pprof -o hierdrl-bench.test .
	@echo wrote cpu-hier.pprof mem-hier.pprof '(binary: hierdrl-bench.test)'

# clean removes what the profile targets leave behind.
clean:
	rm -f cpu.pprof mem.pprof cpu-drl.pprof mem-drl.pprof cpu-hier.pprof mem-hier.pprof hierdrl-bench.test
