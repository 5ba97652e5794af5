// Command hiersim runs one cloud resource-allocation and power-management
// configuration end to end and prints the summary (and optionally the
// accumulated latency/energy series).
//
// Usage:
//
//	hiersim -system hierarchical -servers 30 -jobs 95000
//	hiersim -system round-robin -servers 40 -jobs 20000 -series
//	hiersim -system fixed-timeout -timeout 60 -trace mytrace.csv
//	hiersim -system scale-10k
//	hiersim -system round-robin -faults exp-crash -mttf 20000 -mttr 600 -retry backoff
//	hiersim -system round-robin -faults correlated-crash -domains 4 -mttf 40000
//	hiersim -system hierarchical -faults degrade -degrade-factor 0.3
//	hiersim -system fixed-timeout -faults maintenance-drain -drain-every 7200 -drain-window 300
//	hiersim -system hierarchical -servers 30 -checkpoint run.ckpt -checkpoint-every 500
//	hiersim -resume run.ckpt
//	hiersim -list
//	hiersim -scenario flashcrowd
//	hiersim -scenario mixed-het -system hierarchical -servers 60 -jobs 40000
//
// -list prints every allocator, power manager, predictor, fault model, retry
// policy, and workload scenario this build knows, then exits. -scenario runs a
// registered scenario (cluster layout plus streamed workload); -servers and
// -jobs rescale it when set explicitly, and -system picks the policy stack
// (default fixed-timeout, the cheap non-learning baseline).
//
// The scale-10k system is the large single-run preset: 10,000 servers, 2M
// jobs streamed from the generator, least-loaded dispatch over the RL/LSTM
// local tier.
//
// The summary's p50/p95/p99 latencies are read from a log-bucket histogram,
// each within 0.78% of the exact order statistic; memory does not grow with
// the job count.
//
// Streaming mode ingests jobs from stdin line by line through the Session
// API ("arrival,duration,cpu,mem,disk" CSV rows, header optional), advances
// the simulated clock as arrivals come in, and prints a live Snapshot
// summary every -snap-every jobs:
//
//	tracegen -jobs 20000 | hiersim -stream -system hierarchical -servers 30
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hierdrl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hiersim: ")

	system := flag.String("system", "hierarchical",
		"system to run: round-robin | drl-only | hierarchical | fixed-timeout | scale-10k")
	servers := flag.Int("servers", 30, "cluster size M (scale-10k default: 10000)")
	jobs := flag.Int("jobs", 95000, "synthetic workload length (ignored with -trace/-stream; scale-10k default: 2000000)")
	warmup := flag.Int("warmup", 20000, "offline-phase rollout length for DRL systems")
	timeout := flag.Float64("timeout", 60, "fixed timeout seconds (system=fixed-timeout)")
	seed := flag.Int64("seed", 1, "random seed")
	traceFile := flag.String("trace", "", "CSV trace to replay instead of a synthetic workload")
	series := flag.Bool("series", false, "print the accumulated latency/energy series")
	predictor := flag.String("predictor", "lstm",
		"workload predictor for the hierarchical local tier: lstm | ewma | last-value | window-mean")
	stream := flag.Bool("stream", false,
		"read jobs from stdin CSV and simulate as they arrive (Session streaming mode)")
	snapEvery := flag.Int("snap-every", 1000,
		"print a live snapshot every N streamed jobs (with -stream)")
	faults := flag.String("faults", "none",
		"failure model: none | exp-crash | correlated-crash | degrade | maintenance-drain (see -list)")
	mttf := flag.Float64("mttf", 172800, "mean time to failure/degradation onset in seconds (crash and degrade models)")
	mttr := flag.Float64("mttr", 600, "mean time to repair in seconds (crash and degrade models)")
	domains := flag.Int("domains", 0,
		"failure domains for -faults correlated-crash: split the cluster into N contiguous equal racks "+
			"(0 = one domain per server class, or the whole cluster)")
	degradeFactor := flag.Float64("degrade-factor", 0,
		"fail-slow speed multiplier in (0,1) (with -faults degrade; 0 = default 0.25)")
	drainEvery := flag.Float64("drain-every", 0,
		"seconds between maintenance windows per server (with -faults maintenance-drain; 0 = default 14400)")
	drainWindow := flag.Float64("drain-window", 0,
		"maintenance window length in seconds (with -faults maintenance-drain; 0 = default 600)")
	retry := flag.String("retry", "backoff",
		"requeue policy for crash-evicted jobs: immediate | backoff | drop-after")
	retryMax := flag.Int("retry-max", 0,
		"max retry attempts before a job is dropped (0 = unbounded; required > 0 with -retry drop-after)")
	checkpointPath := flag.String("checkpoint", "",
		"write a crash-safe snapshot to this file every -checkpoint-every completed jobs "+
			"and on SIGINT/SIGTERM (batch mode; resume with -resume)")
	checkpointEvery := flag.Int("checkpoint-every", 1000,
		"completed jobs between automatic snapshots (with -checkpoint)")
	resume := flag.String("resume", "",
		"resume a batch run from a snapshot written by -checkpoint "+
			"(the config and workload come from the snapshot; system/trace flags are ignored)")
	scenario := flag.String("scenario", "",
		"run a registered workload scenario (see -list); -servers/-jobs rescale it when set explicitly")
	list := flag.Bool("list", false,
		"print registered allocators, power managers, predictors, fault models, retry policies, and scenarios, then exit")
	telemetryAddr := flag.String("telemetry-addr", "",
		"serve live telemetry on this address (/metrics Prometheus text, /healthz, /snapshot JSON, "+
			"/debug/pprof); e.g. 127.0.0.1:9188, or 127.0.0.1:0 for an ephemeral port")
	epochTrace := flag.String("epoch-trace", "",
		"write the last decision epochs as Chrome trace-event JSON to this file at exit "+
			"(load in chrome://tracing)")
	snapFormat := flag.String("snap-format", "table",
		"live snapshot format (with -stream): table | json (one object per line, matching the "+
			"telemetry endpoint's /snapshot schema)")
	flag.Parse()

	if *list {
		printRegistry(os.Stdout)
		return
	}

	// Fail fast on unknown extension-point names with the registered set in
	// the message (exit 2: usage error, distinct from runtime failures).
	if msg := checkRegistered("fault model", *faults, names(hierdrl.FaultModels())); msg != "" {
		fmt.Fprintln(os.Stderr, "hiersim: "+msg)
		os.Exit(2)
	}
	if msg := checkRegistered("retry policy", *retry, names(hierdrl.RetryPolicies())); msg != "" {
		fmt.Fprintln(os.Stderr, "hiersim: "+msg)
		os.Exit(2)
	}
	if *snapFormat != "table" && *snapFormat != "json" {
		fmt.Fprintf(os.Stderr, "hiersim: unknown -snap-format %q; supported: table json\n", *snapFormat)
		os.Exit(2)
	}

	// Telemetry options ride along on every run path (batch, stream,
	// scenario, scale-10k, resume).
	var telOpts []hierdrl.SessionOption
	if *telemetryAddr != "" {
		telOpts = append(telOpts, hierdrl.WithTelemetry(*telemetryAddr))
	}
	if *epochTrace != "" {
		telOpts = append(telOpts, hierdrl.WithEpochTraceFile(*epochTrace, 0))
	}

	var scen *hierdrl.Scenario
	if *scenario != "" {
		if *traceFile != "" || *stream || *resume != "" || *checkpointPath != "" {
			log.Fatal("-scenario generates its own streamed workload; it cannot be combined with -trace, -stream, -resume, or -checkpoint")
		}
		sc, ok := hierdrl.LookupScenario(*scenario)
		if !ok {
			log.Fatalf("unknown scenario %q; registered: %s",
				*scenario, strings.Join(hierdrl.Scenarios(), " "))
		}
		m, j := 0, 0
		if flagWasSet("servers") {
			m = *servers
		}
		if flagWasSet("jobs") {
			j = *jobs
		}
		sc = sc.Scaled(m, j)
		if !flagWasSet("system") {
			// Scenarios compare workloads, not learners; default to the cheap
			// non-learning baseline instead of a full hierarchical warmup.
			*system = "fixed-timeout"
		}
		*servers = sc.M
		scen = &sc
	}

	var cfg hierdrl.Config
	switch *system {
	case "round-robin":
		cfg = hierdrl.RoundRobin(*servers)
	case "drl-only":
		cfg = hierdrl.DRLOnly(*servers)
	case "hierarchical":
		cfg = hierdrl.Hierarchical(*servers)
		cfg.Predictor = hierdrl.PredictorKind(*predictor)
	case "fixed-timeout":
		cfg = hierdrl.FixedTimeoutBaseline(*servers, *timeout)
	case "scale-10k":
		// The multi-core single-run preset: M=10,000 servers, 2M streamed
		// jobs, least-loaded dispatch over the RL/LSTM local tier. The flag
		// defaults above are for the paper-scale systems; rewrite them here
		// unless the user overrode them.
		if !flagWasSet("servers") {
			*servers = hierdrl.ScaleM
		}
		if !flagWasSet("jobs") {
			*jobs = hierdrl.ScaleJobs
		}
		cfg = hierdrl.ScaleSim(*servers)
	default:
		log.Fatalf("unknown system %q", *system)
	}
	cfg.Seed = *seed
	cfg.Faults = hierdrl.FaultKind(*faults)
	cfg.MTTFSec = *mttf
	cfg.MTTRSec = *mttr
	cfg.Retry = hierdrl.RetryKind(*retry)
	cfg.RetryMax = *retryMax
	if *domains > 0 {
		cfg.Domains = hierdrl.EqualDomains(*domains, cfg.M)
	}
	cfg.DegradeFactor = *degradeFactor
	cfg.DrainEverySec = *drainEvery
	cfg.DrainWindowSec = *drainWindow
	if *series {
		if *stream {
			// The stream length is unknown up front; checkpoint at the
			// snapshot cadence instead of a -jobs-derived interval (fall
			// back to the cadence default when snapshots are disabled —
			// never to per-job checkpointing).
			cfg.CheckpointEvery = *snapEvery
			if cfg.CheckpointEvery <= 0 {
				cfg.CheckpointEvery = 1000
			}
		} else {
			cfg.CheckpointEvery = max(1, *jobs/20)
		}
	}
	if cfg.Alloc == hierdrl.AllocDRL && *warmup > 0 {
		cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(*warmup, *servers, *seed+1000)
	}

	// SIGINT/SIGTERM cancel the session between events; the run then surfaces
	// a final snapshot (with -checkpoint, the session writes a resumable final
	// generation to the snapshot file) and exits cleanly instead of dying
	// mid-simulation. A second signal (after stop restores the default
	// handler) kills hard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if scen != nil {
		scen.ApplyTo(&cfg)
		src, err := scen.Source(*seed)
		if err != nil {
			log.Fatalf("scenario: %v", err)
		}
		runGenerated(ctx, cfg, src, *series, telOpts)
		return
	}

	if *resume != "" {
		if *stream {
			log.Fatal("-resume continues a batch run; it cannot be combined with -stream")
		}
		runResume(ctx, *resume, *checkpointPath, *checkpointEvery, *series, telOpts)
		return
	}
	if *checkpointPath != "" && (*stream || (*system == "scale-10k" && *traceFile == "")) {
		// A snapshot captures every ingested-but-unfinished job, but not an
		// external stdin stream or generator feed, so such runs cannot resume.
		log.Fatal("-checkpoint supports batch runs over a materialized trace; streamed runs are not resumable")
	}

	if *stream {
		if *traceFile != "" {
			log.Fatal("-trace replays a file; with -stream, pipe the CSV to stdin instead")
		}
		runStream(ctx, cfg, *snapEvery, *series, *snapFormat == "json", telOpts)
		return
	}

	if *system == "scale-10k" && *traceFile == "" {
		// The 2M-job workload is pulled from the generator incrementally —
		// at this length the trace must never materialize.
		src, err := hierdrl.ScaleStream(*jobs, *servers, *seed)
		if err != nil {
			log.Fatalf("workload: %v", err)
		}
		runGenerated(ctx, cfg, src, *series, telOpts)
		return
	}

	var tr *hierdrl.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			log.Fatalf("open trace: %v", err)
		}
		tr, err = hierdrl.ReadTraceCSV(f)
		cerr := f.Close()
		if err != nil {
			log.Fatalf("parse trace: %v", err)
		}
		if cerr != nil {
			log.Fatalf("close trace: %v", cerr)
		}
	} else {
		tr = hierdrl.SyntheticTraceForCluster(*jobs, *servers, *seed)
	}

	runBatch(ctx, cfg, tr, *series, *checkpointPath, *checkpointEvery, telOpts)
}

// runGenerated streams a generator's jobs through RunSource and prints the
// result; an interrupt discards the partial run (a generator feed is not
// resumable).
func runGenerated(ctx context.Context, cfg hierdrl.Config, src hierdrl.JobSource, series bool, telOpts []hierdrl.SessionOption) {
	opts := append([]hierdrl.SessionOption{hierdrl.WithContext(ctx)}, telOpts...)
	res, err := hierdrl.RunSource(cfg, src, opts...)
	if err != nil {
		if ctx.Err() != nil {
			log.Println("interrupted — partial run discarded")
			return
		}
		log.Fatalf("run: %v", err)
	}
	printResult(res, series)
}

// runBatch replays one materialized trace through a Session the command owns
// (rather than the Run wrapper), so an interrupt can surface a final
// snapshot of the partial run — or, with -checkpoint, leave a resumable
// snapshot file — before exiting.
func runBatch(ctx context.Context, cfg hierdrl.Config, tr *hierdrl.Trace, series bool, ckpt string, every int, telOpts []hierdrl.SessionOption) {
	opts := append([]hierdrl.SessionOption{hierdrl.WithContext(ctx)}, telOpts...)
	if ckpt != "" {
		opts = append(opts, hierdrl.WithAutoCheckpoint(ckpt, every))
	}
	s, err := hierdrl.NewSession(cfg, opts...)
	if err != nil {
		log.Fatalf("session: %v", err)
	}
	defer closeSession(s)
	logTelemetryAddr(s)
	if err := s.SubmitTrace(tr); err != nil {
		log.Fatalf("submit: %v", err)
	}
	drainBatch(ctx, s, ckpt, series)
}

// runResume restores a session from a snapshot file and drives it to
// completion, checkpointing onward to ckpt (or back over the source file if
// -checkpoint was not given) so a resumed run remains interruptible.
func runResume(ctx context.Context, from, ckpt string, every int, series bool, telOpts []hierdrl.SessionOption) {
	if ckpt == "" {
		ckpt = from
	}
	f, err := os.Open(from)
	if err != nil {
		log.Fatalf("open snapshot: %v", err)
	}
	opts := append([]hierdrl.SessionOption{hierdrl.WithContext(ctx), hierdrl.WithAutoCheckpoint(ckpt, every)}, telOpts...)
	s, err := hierdrl.Restore(f, opts...)
	cerr := f.Close()
	if err != nil {
		log.Fatalf("restore: %v", err)
	}
	if cerr != nil {
		log.Fatalf("close snapshot: %v", cerr)
	}
	defer closeSession(s)
	logTelemetryAddr(s)
	drainBatch(ctx, s, ckpt, series)
}

// drainBatch is the batch and resume runs' one tail: Drain, then the
// interrupt, then the Result. An interrupt latches inside the session; with
// -checkpoint (ckpt set) the session has written its final snapshot
// generation first, and Drain returns the bare cancellation only when that
// write landed — a failed write comes back wrapped beside it and exits
// non-zero.
func drainBatch(ctx context.Context, s *hierdrl.Session, ckpt string, series bool) {
	err := s.Drain()
	if err != nil && ctx.Err() != nil {
		if ckpt == "" {
			exitInterrupted(s)
		}
		if err == ctx.Err() {
			fmt.Printf("\ninterrupted — snapshot flushed; resume with -resume %s\n", ckpt)
			os.Exit(0)
		}
	}
	if err != nil {
		log.Fatalf("drain: %v", err)
	}
	res, err := s.Result()
	if err != nil {
		log.Fatalf("result: %v", err)
	}
	printResult(res, series)
}

// exitInterrupted prints a final snapshot of a canceled session and exits
// with status 0 (a partial run yields no Result, by design).
func exitInterrupted(s *hierdrl.Session) {
	fmt.Println("\ninterrupted — final snapshot:")
	printSnapHeader()
	printSnap(s.Snapshot())
	os.Exit(0)
}

// printRegistry lists every extension point's names to w, one entry per
// line in sorted order, so scripts can discover what this build supports.
func printRegistry(w io.Writer) {
	section := func(title string, entries []string) {
		fmt.Fprintf(w, "%s:\n", title)
		for _, e := range entries {
			fmt.Fprintf(w, "  %s\n", e)
		}
	}
	section("allocators", names(hierdrl.Allocators()))
	section("power managers", names(hierdrl.PowerManagers()))
	section("predictors", names(hierdrl.Predictors()))
	section("fault models", names(hierdrl.FaultModels()))
	section("retry policies", names(hierdrl.RetryPolicies()))
	fmt.Fprintln(w, "scenarios:")
	for _, name := range hierdrl.Scenarios() {
		sc, _ := hierdrl.LookupScenario(name)
		fmt.Fprintf(w, "  %-18s %s\n", name, sc.Description)
	}
}

// checkRegistered returns "" when name is one of registered, else a one-line
// usage-error message naming the registered set. Split out of main so the
// CLI test can pin the exact message without forking the binary.
func checkRegistered(kind, name string, registered []string) string {
	for _, r := range registered {
		if r == name {
			return ""
		}
	}
	return fmt.Sprintf("unknown %s %q; registered: %s", kind, name, strings.Join(registered, " "))
}

// names converts a listing of named kinds to plain strings.
func names[K ~string](ks []K) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return out
}

// flagWasSet reports whether the named flag was passed explicitly.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runStream drives the Session API end to end: Submit per stdin row,
// StepUntil to chase the ingested arrivals, Snapshot for live progress,
// Drain + Result at EOF.
func runStream(ctx context.Context, cfg hierdrl.Config, snapEvery int, series, jsonSnaps bool, telOpts []hierdrl.SessionOption) {
	opts := append([]hierdrl.SessionOption{hierdrl.WithContext(ctx)}, telOpts...)
	s, err := hierdrl.NewSession(cfg, opts...)
	if err != nil {
		log.Fatalf("session: %v", err)
	}
	defer closeSession(s)
	logTelemetryAddr(s)

	// printLive emits one live snapshot in the selected format: the table row,
	// or one JSON object per line matching the telemetry /snapshot schema.
	printLive := func() {
		if jsonSnaps {
			b, err := s.SnapshotJSON()
			if err != nil {
				log.Fatalf("snapshot: %v", err)
			}
			fmt.Println(string(b))
			return
		}
		printSnap(s.Snapshot())
	}
	if !jsonSnaps {
		printSnapHeader()
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || (line == 1 && strings.HasPrefix(text, "arrival")) {
			continue
		}
		job, err := hierdrl.ParseTraceCSVRow(text)
		if err != nil {
			log.Fatalf("stdin line %d: %v", line, err)
		}
		if err := s.Submit(job); err != nil {
			log.Fatalf("stdin line %d: %v", line, err)
		}
		if n := s.Ingested(); snapEvery > 0 && n%int64(snapEvery) == 0 {
			// Chase the stream: advance the clock to the newest arrival so
			// the snapshot reflects live progress, not a deferred backlog.
			if err := s.StepUntil(hierdrl.Time(job.Arrival)); err != nil {
				if ctx.Err() != nil {
					exitInterrupted(s)
				}
				log.Fatalf("step: %v", err)
			}
			printLive()
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("stdin: %v", err)
	}
	if s.Ingested() == 0 {
		log.Fatal("no jobs on stdin")
	}
	if err := s.Drain(); err != nil {
		if ctx.Err() != nil {
			exitInterrupted(s)
		}
		log.Fatalf("drain: %v", err)
	}
	printLive()
	res, err := s.Result()
	if err != nil {
		log.Fatalf("result: %v", err)
	}
	fmt.Println()
	printResult(res, series)
}

// closeSession closes s, surfacing the only error Close can produce (a
// failing -epoch-trace dump) instead of discarding it in a defer.
func closeSession(s *hierdrl.Session) {
	if err := s.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}

// logTelemetryAddr prints the bound telemetry endpoint (once, to stderr) so
// ephemeral -telemetry-addr ports ("127.0.0.1:0") are discoverable.
func logTelemetryAddr(s *hierdrl.Session) {
	if addr := s.TelemetryAddr(); addr != "" {
		log.Printf("telemetry: http://%s/metrics", addr)
	}
}

func printSnapHeader() {
	fmt.Printf("%10s %10s %10s %8s %10s %12s %10s\n",
		"t(s)", "submitted", "completed", "queued", "power(W)", "energy(kWh)", "avgLat(s)")
}

func printSnap(sn hierdrl.SessionSnapshot) {
	fmt.Printf("%10.0f %10d %10d %8d %10.1f %12.3f %10.1f\n",
		sn.Now.Seconds(), sn.Ingested, sn.Completed,
		sn.PendingArrivals+sn.JobsInSystem, sn.TotalPowerW, sn.EnergykWh, sn.AvgLatencySec)
	if sn.Failures > 0 {
		fmt.Printf("%21s down=%d failures=%d retried=%d lost=%d availability=%.4f\n",
			"faults:", sn.ServersDown, sn.Failures, sn.JobsRetried, sn.JobsLost, sn.Availability)
		if sn.JobsMigrated > 0 || sn.DomainOutages > 0 || sn.DegradedSec > 0 {
			fmt.Printf("%21s unavailable=%d migrated=%d outages=%d degraded=%.0fs\n",
				"", sn.ServersUnavailable, sn.JobsMigrated, sn.DomainOutages, sn.DegradedSec)
		}
	}
}

func printResult(res *hierdrl.Result, series bool) {
	s := res.Summary
	fmt.Printf("system            %s\n", s.Policy)
	fmt.Printf("servers           %d\n", s.M)
	fmt.Printf("jobs              %d\n", s.Jobs)
	fmt.Printf("simulated span    %.0f s (%.2f days)\n", s.DurationSec, s.DurationSec/86400)
	fmt.Printf("energy            %.2f kWh\n", s.EnergykWh)
	fmt.Printf("acc latency       %.2f x10^6 s\n", s.AccLatencySec/1e6)
	fmt.Printf("avg power         %.2f W\n", s.AvgPowerW)
	fmt.Printf("avg latency       %.1f s\n", s.AvgLatencySec)
	fmt.Printf("p95 latency       %.1f s\n", s.P95LatencySec)
	fmt.Printf("p50/p99 latency   %.1f / %.1f s\n", s.P50LatencySec, s.P99LatencySec)
	fmt.Printf("mean wait         %.1f s\n", s.MeanWaitSec)
	fmt.Printf("wakeups/shutdowns %d / %d\n", res.Summary.Wakeups, res.Summary.Shutdowns)
	if s.Failures > 0 {
		fmt.Printf("availability      %.4f\n", s.Availability)
		fmt.Printf("failures/repairs  %d / %d (MTTR %.0f s)\n", s.Failures, s.Repairs, s.MTTRSec)
		fmt.Printf("retried/lost      %d / %d (lost work %.0f s)\n",
			s.JobsRetried, s.JobsLost, s.LostWorkSec)
		if s.DomainOutages > 0 {
			fmt.Printf("domain outages    %d\n", s.DomainOutages)
		}
		if s.DegradedSec > 0 {
			fmt.Printf("degraded time     %.0f server-s\n", s.DegradedSec)
		}
		if s.Drains > 0 {
			fmt.Printf("drains/migrated   %d / %d\n", s.Drains, s.JobsMigrated)
		}
	}
	if res.AgentDiag != "" {
		fmt.Printf("agent             %s\n", res.AgentDiag)
	}
	if series {
		fmt.Println("\njobs,time_s,acc_latency_s,energy_kwh")
		for _, cp := range res.Checkpoints {
			fmt.Printf("%d,%.0f,%.0f,%.4f\n",
				cp.Jobs, cp.Time.Seconds(), cp.AccLatencySec, cp.EnergykWh)
		}
	}
}
