package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// benchmarkJSON is the root BENCHMARK.json: exactly these keys.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func declared() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   contractEndToEnd(),
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	return b
}

const benchmarkPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON pins BENCHMARK.json to the tables the program reports
// from, and the tables to the limits BENCHMARK.json must keep.
func TestBenchmarkJSON(t *testing.T) {
	want := declared()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	// Decoded metricDefs carry no unexported fields; compare what the file
	// can hold.
	for i := range want.EndToEnd {
		d := want.EndToEnd[i]
		want.EndToEnd[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables in this package; run `go test -run TestBenchmarkJSON -update`")
	}

	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s: %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range got.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s", d.Unit, d.Name)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s", d.Bound, d.Name)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == lower {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range got.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s", d.Unit, d.Name)
		}
	}
}

func allNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// TestQuickSuite runs every workload at 1/200 size, untraced and traced, at
// the default seed and at a held-out one, and checks that the emitted names
// are the declared ones and that all five correctness checks executed.
func TestQuickSuite(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		executed := map[string]bool{}
		run := func(o runOpts) (*runResult, *runDetail, error) {
			res, d := runOne(o)
			for _, c := range d.Checks {
				executed[c.Name] = true
			}
			return res, d, nil
		}
		o := suiteOpts{workloads: allNames(), seed: seed, quick: true, reps: 1, e2e: true, trace: true}
		rep, err := runSuite(o, run, new(bytes.Buffer))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			var out bytes.Buffer
			rep.print(&out)
			t.Fatalf("seed %d: checks failed:\n%s", seed, out.String())
		}
		for _, c := range []string{checkConserved, checkRepeatable, checkShardedSame, checkResumeSame, checkCoverage} {
			if !executed[c] {
				t.Errorf("seed %d: check %s never executed", seed, c)
			}
		}
		if len(rep.Workloads) != len(workloads) {
			t.Fatalf("seed %d: %d workloads reported, want %d", seed, len(rep.Workloads), len(workloads))
		}
		for i, wr := range rep.Workloads {
			if wr.Name != workloads[i].name {
				t.Errorf("workload %d is %q, want %q", i, wr.Name, workloads[i].name)
			}
			if len(wr.EndToEnd) != len(endToEnd) {
				t.Fatalf("%s: %d end-to-end metrics, want %d", wr.Name, len(wr.EndToEnd), len(endToEnd))
			}
			for j, m := range wr.EndToEnd {
				if m.Name != endToEnd[j].Name || m.Unit != endToEnd[j].Unit {
					t.Errorf("%s: end-to-end metric %d is %s [%s], want %s [%s]", wr.Name, j, m.Name, m.Unit, endToEnd[j].Name, endToEnd[j].Unit)
				}
				if m.N != 1 || math.IsNaN(m.Median) {
					t.Errorf("%s: %s has n=%d median=%v", wr.Name, m.Name, m.N, m.Median)
				}
				if m.Name != "failed_frac" && m.Median <= 0 {
					t.Errorf("%s: %s reads %v; end-to-end metrics must never be 0", wr.Name, m.Name, m.Median)
				}
			}
			if len(wr.Layers) != len(perLayer) {
				t.Errorf("%s: %d per-layer metrics, want %d", wr.Name, len(wr.Layers), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := wr.Layers[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: per-layer metric %s missing or in unit %q", wr.Name, d.Name, m.Unit)
				}
			}
			if cov := wr.Layers["ledger.coverage"].Value; cov < minCoverage || cov > 1.001 {
				t.Errorf("%s: ledger.coverage %v", wr.Name, cov)
			}
		}
	}
}

// TestPerturbedFingerprintFails proves check (2) can fail: one repetition
// with a different fingerprint makes that run a failed run and the report
// not OK.
func TestPerturbedFingerprintFails(t *testing.T) {
	runs := 0
	run := func(o runOpts) (*runResult, *runDetail, error) {
		res, d := runOne(o)
		if runs++; runs == 2 {
			d.Fingerprint = fpString(^uint64(0))
		}
		return res, d, nil
	}
	o := suiteOpts{workloads: []string{"engine-rr"}, seed: 1, quick: true, reps: 3, e2e: true}
	rep, err := runSuite(o, run, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	wr := rep.Workloads[0]
	if rep.OK || wr.FailedRuns != 1 {
		t.Fatalf("ok=%v failed_runs=%d, want a failed report with one failed run", rep.OK, wr.FailedRuns)
	}
	for _, m := range wr.EndToEnd {
		if m.Name == "failed_frac" && !reflect.DeepEqual(m.Values, []float64{0, 1, 0}) {
			t.Errorf("failed_frac per run = %v, want [0 1 0]", m.Values)
		}
	}
}

// TestOneRunLines checks the shape of the two lines one run prints, which is
// what BENCHMARK.json's command is held to.
func TestOneRunLines(t *testing.T) {
	for _, tc := range []struct {
		trace string
		want  []string
	}{
		{"0", defNames(contractEndToEnd())},
		{"1", defNames(perLayer)},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "faults-batch", "--seed", "3", "--seconds", "0", "--trace", tc.trace, "-quick"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("trace %s: result line has keys %v", tc.trace, res)
		}
		var metrics map[string]measured
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.want))
		}
		for _, n := range tc.want {
			if _, ok := metrics[n]; !ok {
				t.Errorf("trace %s: metric %s missing", tc.trace, n)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "no-such", "--trace", "0"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	return names
}

func TestClassify(t *testing.T) {
	sum := func(values ...float64) metricSummary {
		q1, q3 := quartiles(values)
		return metricSummary{N: len(values), Median: median(values), Q1: q1, Q3: q3, Values: values}
	}
	rate := metricDef{Name: "jobs_per_s", Better: higher, Bound: 0.10}
	cost := metricDef{Name: "us_per_job_p50", Better: lower, Bound: 0.10}
	exact := metricDef{Name: "sim_energy_kwh", Better: lower, Bound: 0.10, exact: true}
	for _, tc := range []struct {
		name     string
		def      metricDef
		a, b     metricSummary
		sameSeed bool
		want     string
	}{
		{"within bound", rate, sum(100, 101, 102, 103, 104), sum(97, 98, 99, 100, 101), true, verdictSame},
		{"rate fell", rate, sum(100, 101, 102, 103, 104), sum(80, 81, 82, 83, 84), true, verdictWorse},
		{"rate rose", rate, sum(100, 101, 102, 103, 104), sum(120, 121, 122, 123, 124), true, verdictBetter},
		{"cost rose", cost, sum(10, 10.1, 10.2), sum(12, 12.1, 12.2), true, verdictWorse},
		{"wide and overlapping", rate, sum(60, 80, 100, 120, 140), sum(70, 75, 80, 125, 130), true, verdictUnresolved},
		{"wide but disjoint", rate, sum(60, 80, 100, 120, 140), sum(20, 25, 30, 35, 40), true, verdictWorse},
		{"exact, same seed", exact, sum(50, 50, 50), sum(50.001, 50.001, 50.001), true, verdictWorse},
		{"exact, other seed", exact, sum(50, 50, 50), sum(50.001, 50.001, 50.001), false, verdictSame},
	} {
		if got := classify(tc.def, tc.a, tc.b, tc.sameSeed); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(rate float64) *report {
		v := []float64{rate, rate * 1.01, rate * 1.02}
		q1, q3 := quartiles(v)
		return &report{Workloads: []*workloadReport{{Name: "engine-rr", Fingerprint: "f", EndToEnd: []metricSummary{
			{metricDef: endToEnd[0], N: 3, Median: median(v), Q1: q1, Q3: q3, Values: v},
		}}}}
	}
	var out bytes.Buffer
	if compareReports(mk(1000), mk(1010), &out) {
		t.Errorf("1%% apart reported worse:\n%s", out.String())
	}
	if !compareReports(mk(1000), mk(500), &out) {
		t.Errorf("halved rate not reported worse:\n%s", out.String())
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v, %v; Python gives 1, 3", q1, q3)
	}
}
