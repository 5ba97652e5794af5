package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

type suiteOpts struct {
	workloads         []string
	seed              int64
	seconds           float64
	quick             bool
	reps              int
	e2e, trace, units bool
	out               string
}

// runner executes one run. The suite gives every run a process of its own,
// so peak_rss_mb, heap and GC state belong to that run; the test substitutes
// an in-process runner.
type runner func(o runOpts) (*runResult, *runDetail, error)

// spawnRun re-executes this binary for one run and reads the two lines it
// prints.
func spawnRun(o runOpts) (*runResult, *runDetail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	args := []string{
		"--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", trace,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	// A run that failed a check exits non-zero but still prints its lines.
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		if runErr == nil {
			runErr = fmt.Errorf("printed %d lines, want a detail and a result line", len(lines))
		}
		return nil, nil, fmt.Errorf("run %s: %w", o.workload, runErr)
	}
	var res runResult
	var detail runDetail
	if err := json.Unmarshal(lines[len(lines)-2], &detail); err != nil {
		return nil, nil, fmt.Errorf("run %s: detail line: %w", o.workload, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("run %s: result line: %w", o.workload, err)
	}
	return &res, &detail, nil
}

// provenance says where, from what and how a report was measured.
type provenance struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GitCommit  string  `json:"git_commit"`
	GitDirty   bool    `json:"git_dirty"`
	Date       string  `json:"date"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds_per_run"`
	Quick      bool    `json:"quick"`
}

// repoRoot finds the hierdrl checkout: the suite runs from it (run.sh) or
// from bench/ (go run .).
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module hierdrl\n")) {
			return dir
		}
	}
	return "."
}

func gatherProvenance(o suiteOpts) provenance {
	p := provenance{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitCommit:  "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
		Seed:       o.seed,
		Reps:       o.reps,
		Seconds:    o.seconds,
		Quick:      o.quick,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = repoRoot()
		b, err := cmd.Output()
		return strings.TrimSpace(string(b)), err
	}
	// Outside a git checkout the commit stays "unknown".
	if commit, err := git("rev-parse", "HEAD"); err == nil {
		p.GitCommit = commit
		if status, err := git("status", "--porcelain"); err == nil {
			p.GitDirty = status != ""
		}
	}
	return p
}

// metricSummary is one (workload, end-to-end metric) cell: the runs' values
// with their median and quartiles.
type metricSummary struct {
	metricDef
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Name        string              `json:"name"`
	Why         string              `json:"why"`
	Jobs        int                 `json:"jobs"`
	Warmup      int                 `json:"warmup"`
	Chunks      int                 `json:"chunks"`
	Fingerprint string              `json:"fingerprint"`
	Runs        int                 `json:"runs"`
	FailedRuns  int                 `json:"failed_runs"`
	EndToEnd    []metricSummary     `json:"end_to_end,omitempty"`
	Layers      map[string]measured `json:"per_layer,omitempty"`
	Ledger      []ledgerRow         `json:"ledger,omitempty"`
	Checks      []check             `json:"checks"`
}

type report struct {
	Provenance provenance          `json:"provenance"`
	Workloads  []*workloadReport   `json:"workloads"`
	Units      map[string]measured `json:"units,omitempty"`
	OK         bool                `json:"ok"`
}

func (r *report) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// runSuite runs the stages the options ask for. Untraced repetitions are
// interleaved round-robin across workloads (w1..w7, w1..w7, ...), so slow
// drift of the machine lands on every workload alike.
func runSuite(o suiteOpts, run runner, progress io.Writer) (*report, error) {
	rep := &report{Provenance: gatherProvenance(o), OK: true}
	e2e := map[string][]*runDetail{}
	for _, name := range o.workloads {
		w, err := findWorkload(name)
		if err != nil {
			return nil, err
		}
		wr := &workloadReport{Name: w.name, Why: w.why}
		wr.Jobs, wr.Warmup, wr.Chunks = w.sizes(o.quick)
		rep.Workloads = append(rep.Workloads, wr)
	}

	// record folds one run into its workload: checks, fingerprint (check 2
	// across runs: every run of a seed must agree), failures.
	record := func(wr *workloadReport, d *runDetail) {
		wr.Runs++
		if d.Error != "" {
			wr.Checks = append(wr.Checks, check{Name: "run", Note: d.Error})
		}
		for _, c := range d.Checks {
			if !c.OK {
				wr.Checks = append(wr.Checks, c)
			}
		}
		switch {
		case d.Fingerprint == "":
		case wr.Fingerprint == "":
			wr.Fingerprint = d.Fingerprint
		case wr.Fingerprint != d.Fingerprint:
			d.FailedFrac = 1
			wr.Checks = append(wr.Checks, check{Name: checkRepeatable,
				Note: fmt.Sprintf("run %d has fingerprint %s, earlier runs %s", wr.Runs, d.Fingerprint, wr.Fingerprint)})
		}
		if d.FailedFrac > 0 {
			wr.FailedRuns++
		}
	}

	if o.e2e {
		for i := 0; i < o.reps; i++ {
			for _, wr := range rep.Workloads {
				fmt.Fprintf(progress, "bench: %s run %d of %d\n", wr.Name, i+1, o.reps)
				_, d, err := run(runOpts{workload: wr.Name, seed: o.seed, seconds: o.seconds, quick: o.quick})
				if err != nil {
					return nil, err
				}
				e2e[wr.Name] = append(e2e[wr.Name], d)
				record(wr, d)
			}
		}
		for _, wr := range rep.Workloads {
			for _, def := range endToEnd {
				var values []float64
				for _, d := range e2e[wr.Name] {
					v := d.EndToEnd[def.Name].Value
					if def.Name == "failed_frac" {
						v = d.FailedFrac
					}
					values = append(values, v)
				}
				q1, q3 := quartiles(values)
				wr.EndToEnd = append(wr.EndToEnd, metricSummary{
					metricDef: def, N: len(values), Median: median(values), Q1: q1, Q3: q3, Values: values,
				})
			}
		}
	}
	if o.trace {
		for _, wr := range rep.Workloads {
			fmt.Fprintf(progress, "bench: %s traced run\n", wr.Name)
			res, d, err := run(runOpts{workload: wr.Name, seed: o.seed, seconds: o.seconds, traced: true, quick: o.quick})
			if err != nil {
				return nil, err
			}
			record(wr, d)
			wr.Layers, wr.Ledger = res.Metrics, d.Ledger
		}
	}
	// Check (3) across workloads: the sharded tier must reproduce its strict
	// twin bit for bit.
	for _, wr := range rep.Workloads {
		w, _ := findWorkload(wr.Name)
		if twin := rep.workload(w.twin); twin != nil && twin.Fingerprint != "" && wr.Fingerprint != "" && twin.Fingerprint != wr.Fingerprint {
			wr.Checks = append(wr.Checks, check{Name: checkShardedSame,
				Note: fmt.Sprintf("%s %s != %s %s", wr.Name, wr.Fingerprint, twin.Name, twin.Fingerprint)})
		}
	}
	if o.units {
		fmt.Fprintln(progress, "bench: unit costs")
		units, err := runUnits()
		if err != nil {
			return nil, err
		}
		rep.Units = units
	}
	for _, wr := range rep.Workloads {
		if len(wr.Checks) > 0 || wr.FailedRuns > 0 {
			rep.OK = false
		}
	}
	return rep, nil
}

// print writes every metric by name with its unit.
func (r *report) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "# %s, %d cpu, GOMAXPROCS %d, %s, commit %s dirty=%v, seed %d, %d reps of %gs\n",
		p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.GitCommit, p.GitDirty, p.Seed, p.Reps, p.Seconds)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n== %s: %d jobs, %d warmup, %d chunks, fingerprint %s, %d runs (%d failed)\n",
			wr.Name, wr.Jobs, wr.Warmup, wr.Chunks, wr.Fingerprint, wr.Runs, wr.FailedRuns)
		for _, m := range wr.EndToEnd {
			fmt.Fprintf(w, "%-28s %14.6g %-10s  q1 %-12.6g q3 %-12.6g n=%d\n", m.Name, m.Median, m.Unit, m.Q1, m.Q3, m.N)
		}
		if wr.Layers != nil {
			for _, def := range perLayer {
				fmt.Fprintf(w, "%-36s %14.6g %s\n", def.Name, wr.Layers[def.Name].Value, def.Unit)
			}
			for _, row := range wr.Ledger {
				fmt.Fprintf(w, "ledger %-12s %10.4f s %12.1f ns/job %6.1f%%\n", row.Layer, row.SelfS, row.NsPerJob, 100*row.Share)
			}
		}
		for _, c := range wr.Checks {
			fmt.Fprintf(w, "FAILED %s: %s\n", c.Name, c.Note)
		}
	}
	if r.Units != nil {
		fmt.Fprintln(w, "\n== unit costs")
		for _, u := range unitCosts {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", u.name, r.Units[u.name].Value, u.unit)
		}
	}
	if r.OK {
		fmt.Fprintln(w, "\nall checks passed")
	} else {
		fmt.Fprintln(w, "\nCHECKS FAILED")
	}
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
