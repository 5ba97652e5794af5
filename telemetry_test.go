package hierdrl_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hierdrl"
)

// obsCfg builds the observability smoke configuration: least-loaded dispatch
// with exponential crash/repair faults aggressive enough for a few-thousand-
// job run to see crashes while being scraped.
func obsCfg(m int) hierdrl.Config {
	cfg := hierdrl.RoundRobin(m)
	cfg.Name = "obs-smoke"
	cfg.Alloc = hierdrl.AllocLeastLoaded
	cfg.Faults = hierdrl.FaultExpCrash
	cfg.MTTFSec = 20000
	cfg.MTTRSec = 600
	cfg.Retry = hierdrl.RetryImmediate
	return cfg
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts the value of the exact series line "name value" (name
// including its label set) from a Prometheus text body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: parse %q: %v", series, rest, err)
		}
		return v
	}
	t.Fatalf("series %s not found in /metrics body:\n%s", series, body)
	return 0
}

// TestObsSmoke is the live-telemetry acceptance run: a fault-injected
// workload scraped mid-run — /metrics must expose the simulation
// and process families, /healthz must answer — and, after completion, the
// published p99 must lie within the histogram's 2^-7 relative bound of the
// exact p99 of the latencies collected through the Observer.
func TestObsSmoke(t *testing.T) {
	m := 8
	cfg := obsCfg(m)
	tr := hierdrl.SyntheticTraceForCluster(3000, m, 7)

	var exact []float64
	obs := hierdrl.Observer{OnJobDone: func(_ hierdrl.Time, j *hierdrl.ClusterJob) {
		exact = append(exact, j.Latency())
	}}
	s, err := hierdrl.NewSession(cfg,
		hierdrl.WithTelemetry("127.0.0.1:0"),
		hierdrl.WithObserver(obs))
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	addr := s.TelemetryAddr()
	if addr == "" {
		t.Fatal("TelemetryAddr empty with WithTelemetry configured")
	}
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Run to roughly the half-way point, then scrape while the session is
	// live (parked between events). Publishes are wall-clock
	// throttled to ~4/s, so wait out the gap and step again to force a
	// mid-run publish before scraping.
	for s.Completed() < 1500 && !s.Drained() {
		if _, err := s.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	for s.Completed() < 2100 && !s.Drained() {
		if _, err := s.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if hz := httpGet(t, "http://"+addr+"/healthz"); hz != "ok\n" {
		t.Fatalf("/healthz = %q", hz)
	}
	mid := httpGet(t, "http://"+addr+"/metrics")
	for _, fam := range []string{
		"hiersim_sim_time_seconds",
		"hiersim_jobs_completed_total",
		"hiersim_jobs_in_system",
		"hiersim_power_watts",
		"hiersim_energy_kwh",
		"hiersim_jobs_per_second",
		"hiersim_events_per_second",
		"hiersim_failures_total",
		"hiersim_availability",
		`hiersim_latency_seconds{quantile="0.99"}`,
		`hiersim_latency_seconds{class="short",quantile="0.5"}`,
		"hiersim_wait_seconds",
		"go_goroutines",
		"go_heap_alloc_bytes",
		"process_uptime_seconds",
	} {
		if !strings.Contains(mid, fam) {
			t.Errorf("mid-run /metrics missing %s", fam)
		}
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/snapshot")), &rec); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if c, _ := rec["completed"].(float64); c < 500 {
		t.Errorf("/snapshot completed %v, want >= 500 (publish cadence)", rec["completed"])
	}

	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatalf("result: %v", err)
	}

	// Result publishes the final blobs: the served p99 must lie within the
	// histogram's hard bound of the exact p99 (DESIGN.md §17).
	final := httpGet(t, "http://"+addr+"/metrics")
	p99 := metricValue(t, final, `hiersim_latency_seconds{quantile="0.99"}`)
	sort.Float64s(exact)
	n := len(exact)
	if n < 2000 {
		t.Fatalf("only %d completions observed", n)
	}
	if want := exact[int(0.99*float64(n-1))]; math.Abs(p99-want) > want/128 {
		t.Errorf("published p99 %v, exact %v: off by more than 2^-7 (n=%d)", p99, want, n)
	}
	if got := metricValue(t, final, "hiersim_jobs_completed_total"); int(got) != n {
		t.Errorf("published completions %v, observer saw %d", got, n)
	}

	// The /snapshot body and Session.SnapshotJSON share one schema and, with
	// the engine idle since the final publish, one byte stream.
	snapBody := httpGet(t, "http://"+addr+"/snapshot")
	js, err := s.SnapshotJSON()
	if err != nil {
		t.Fatalf("SnapshotJSON: %v", err)
	}
	if snapBody != string(js) {
		t.Errorf("/snapshot and SnapshotJSON diverge:\n%s\nvs\n%s", snapBody, js)
	}
}

// TestTelemetryPreservesBitwiseMetrics asserts the observability layer's
// zero-perturbation contract: attaching WithTelemetry (sketches feeding a
// live endpoint) or WithEpochTrace (wall-clock spans per decision) changes
// no summary bit of a run.
func TestTelemetryPreservesBitwiseMetrics(t *testing.T) {
	m := 8
	cfg := hierdrl.RoundRobin(m)
	tr := hierdrl.SyntheticTraceForCluster(800, m, 7)
	base, err := hierdrl.Run(cfg, tr)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	for name, opt := range map[string]hierdrl.SessionOption{
		"telemetry":   hierdrl.WithTelemetry("127.0.0.1:0"),
		"epoch-trace": hierdrl.WithEpochTrace(64),
	} {
		wired, err := hierdrl.Run(cfg, tr, opt)
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		if summaryBits(base.Summary) != summaryBits(wired.Summary) {
			t.Fatalf("%s perturbed the summary: %+v vs %+v", name, base.Summary, wired.Summary)
		}
	}
}

// TestSummaryQuantilesWithinBound pins the summary percentiles: P50, P95
// and P99 read from the collector's latency histogram lie within 2^-7 of the
// exact order statistics of the latencies collected through the Observer.
func TestSummaryQuantilesWithinBound(t *testing.T) {
	m := 8
	cfg := hierdrl.RoundRobin(m)
	cfg.Alloc = hierdrl.AllocLeastLoaded
	tr := hierdrl.SyntheticTraceForCluster(4000, m, 11)

	var exact []float64
	obs := hierdrl.Observer{OnJobDone: func(_ hierdrl.Time, j *hierdrl.ClusterJob) {
		exact = append(exact, j.Latency())
	}}
	res, err := hierdrl.Run(cfg, tr, hierdrl.WithObserver(obs))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(exact) != res.Summary.Jobs {
		t.Fatalf("observer saw %d completions, summary counts %d", len(exact), res.Summary.Jobs)
	}
	sort.Float64s(exact)
	for _, c := range []struct {
		name   string
		got, q float64
	}{
		{"p50", res.Summary.P50LatencySec, 0.50},
		{"p95", res.Summary.P95LatencySec, 0.95},
		{"p99", res.Summary.P99LatencySec, 0.99},
	} {
		if want := exact[int(c.q*float64(len(exact)-1))]; math.Abs(c.got-want) > want/128 {
			t.Errorf("%s %v, exact %v: off by more than 2^-7", c.name, c.got, want)
		}
	}
}

// TestEpochTraceChromeJSON drives a run with the decision-epoch ring attached
// and asserts the dump is loadable Chrome trace-event JSON with all four
// decision segments on the engine's thread. Pack-fit reads the allocation
// view, so the refresh segment is timed too.
func TestEpochTraceChromeJSON(t *testing.T) {
	m := 8
	cfg := hierdrl.RoundRobin(m)
	cfg.Alloc = hierdrl.AllocPackFit
	tr := hierdrl.SyntheticTraceForCluster(400, m, 7)
	s, err := hierdrl.NewSession(cfg, hierdrl.WithEpochTrace(4096))
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatalf("result: %v", err)
	}
	var buf bytes.Buffer
	if err := s.WriteEpochTrace(&buf); err != nil {
		t.Fatalf("WriteEpochTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	names := map[string]bool{}
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		if ev.Dur <= 0 {
			t.Fatalf("event %s has non-positive dur %v", ev.Name, ev.Dur)
		}
		names[ev.Name] = true
		tids[ev.Tid] = true
		if _, ok := ev.Args["epoch"]; !ok {
			t.Fatalf("event %s missing epoch arg", ev.Name)
		}
	}
	for _, want := range []string{"run", "refresh+encode", "alloc+gemm", "commit"} {
		if !names[want] {
			t.Errorf("trace missing %q events (got %v)", want, names)
		}
	}
	if len(tids) != 1 || !tids[0] {
		t.Errorf("events on threads %v, want the engine's tid 0 only", tids)
	}
}

// TestEpochTraceOnDefaultSession pins that epoch tracing needs no option but
// its own: a default session records one span per decision, and a session
// without the ring refuses the dump.
func TestEpochTraceOnDefaultSession(t *testing.T) {
	cfg := hierdrl.RoundRobin(4)
	tr := hierdrl.SyntheticTraceForCluster(100, 4, 3)
	s, err := hierdrl.NewSession(cfg, hierdrl.WithEpochTrace(64))
	if err != nil {
		t.Fatalf("WithEpochTrace: %v", err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	drainResult(t, s)
	var buf bytes.Buffer
	if err := s.WriteEpochTrace(&buf); err != nil {
		t.Fatalf("WriteEpochTrace: %v", err)
	}
	if n := strings.Count(buf.String(), `"name":"alloc+gemm"`); n == 0 || n > 64 {
		t.Errorf("%d alloc+gemm spans in a 64-slot ring over %d decisions", n, len(tr.Jobs))
	}
	plain, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.WriteEpochTrace(io.Discard); err == nil {
		t.Fatal("WriteEpochTrace without WithEpochTrace must error")
	}
}

// TestRunSurfacesEpochTraceDumpError pins WithEpochTraceFile's documented
// contract for wrapper-owned sessions: a failing dump surfaces from Close, and
// Run / RunSource return it when the run itself succeeded.
func TestRunSurfacesEpochTraceDumpError(t *testing.T) {
	m := 4
	cfg := hierdrl.RoundRobin(m)
	opts := []hierdrl.SessionOption{hierdrl.WithEpochTraceFile("/nonexistent-dir/x.json", 0)}
	if res, err := hierdrl.Run(cfg, hierdrl.SyntheticTraceForCluster(50, m, 1), opts...); err == nil || res != nil {
		t.Errorf("Run = (%v, %v), want the dump error", res, err)
	}
	src, err := hierdrl.ScaleStream(50, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := hierdrl.RunSource(cfg, src, opts...); err == nil || res != nil {
		t.Errorf("RunSource = (%v, %v), want the dump error", res, err)
	}
}

// TestCheckpointRoundTripSketches checkpoints a fault run mid-stream and
// resumes it, asserting the continuation reproduces the uninterrupted run's
// histogram-answered quantiles bitwise (the snapshot carries the histogram
// state).
func TestCheckpointRoundTripSketches(t *testing.T) {
	m := 8
	cfg := obsCfg(m)
	tr := hierdrl.SyntheticTraceForCluster(2000, m, 13)

	run := func() *hierdrl.Session {
		t.Helper()
		s, err := hierdrl.NewSession(cfg)
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatalf("submit: %v", err)
		}
		return s
	}
	finish := func(s *hierdrl.Session) hierdrl.Summary {
		t.Helper()
		if err := s.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		res, err := s.Result()
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		return res.Summary
	}
	quantBits := func(s hierdrl.Summary) [3]uint64 {
		return [3]uint64{
			math.Float64bits(s.P50LatencySec),
			math.Float64bits(s.P95LatencySec),
			math.Float64bits(s.P99LatencySec),
		}
	}

	// Uninterrupted reference.
	ref := run()
	defer ref.Close()
	want := finish(ref)

	// Interrupted at ~1000 completions, snapshotted, resumed.
	s := run()
	defer s.Close()
	for s.Completed() < 1000 && !s.Drained() {
		if _, err := s.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	var snap bytes.Buffer
	if err := s.Checkpoint(&snap); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	r, err := hierdrl.Restore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer r.Close()
	got := finish(r)
	if quantBits(got) != quantBits(want) {
		t.Fatalf("resumed quantiles diverged: %+v vs %+v", got, want)
	}
	if math.Float64bits(got.EnergykWh) != math.Float64bits(want.EnergykWh) ||
		got.Jobs != want.Jobs {
		t.Fatalf("resumed run diverged: %+v vs %+v", got, want)
	}
}
