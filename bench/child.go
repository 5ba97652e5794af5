package main

import (
	"fmt"
	"time"
)

// runOpts is one run: one workload, one seed, one process.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
}

// runResult is the result line of one run, in the shape BENCHMARK.json's
// contract fixes: exactly these four keys.
type runResult struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// check is one executed correctness check.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// runDetail is what the suite needs beyond the result line; a run prints it
// on the line before.
type runDetail struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Jobs      int       `json:"jobs"`
	Warmup    int       `json:"warmup"`
	Chunks    int       `json:"chunks"`
	Passes    int       `json:"passes"`
	PassWallS []float64 `json:"pass_wall_s"`
	// EndToEnd holds every end-to-end metric of an untraced run, including
	// those the result line may not carry.
	EndToEnd    map[string]measured `json:"end_to_end,omitempty"`
	Fingerprint string              `json:"fingerprint"`
	FailedFrac  float64             `json:"failed_frac"`
	Checks      []check             `json:"checks"`
	Ledger      []ledgerRow         `json:"ledger,omitempty"`
	Error       string              `json:"error,omitempty"`
}

func (d *runDetail) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Note = fmt.Sprintf(format, args...)
	}
	d.Checks = append(d.Checks, c)
}

func (d *runDetail) passed() bool {
	for _, c := range d.Checks {
		if !c.OK {
			return false
		}
	}
	return d.Error == ""
}

// Check names, as reports print them.
const (
	checkConserved   = "1-jobs-conserved"
	checkRepeatable  = "2-fingerprint-repeats"
	checkShardedSame = "3-sharded-equals-strict"
	checkResumeSame  = "4-resume-equals-uninterrupted"
	checkCoverage    = "5-ledger-coverage"
)

// Set-ups whose median is below cheapSetupS are repeated until the run has
// cheapSetupSamples of them.
const (
	cheapSetupS       = 0.01
	cheapSetupSamples = 32
)

// minCoverage is check (5): the layer self times of a strict-tier traced
// pass must account for this share of its wall.
const minCoverage = 0.90

func fpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// runOne executes one run and never fails without saying so: an error or a
// failed check comes back as Correct == false with every attempted job
// counted as failed.
func runOne(o runOpts) (*runResult, *runDetail) {
	d := &runDetail{Workload: o.workload, Seed: o.seed, Traced: o.traced}
	res := &runResult{Metrics: map[string]measured{}}
	w, err := findWorkload(o.workload)
	if err != nil {
		d.Error = err.Error()
		res.Attempted, res.Failed, d.FailedFrac = 1, 1, 1
		return res, d
	}
	in := newInputs(w, o.seed, o.quick)
	d.Jobs, d.Warmup, d.Chunks = in.jobs, in.warmup, in.chunks

	var passes []*passResult
	if o.traced {
		passes, err = runTraced(in, res, d)
	} else {
		passes, err = runEndToEnd(in, o.seconds, res, d)
	}
	if err != nil {
		d.Error = err.Error()
	}
	for _, p := range passes {
		res.Attempted += p.ingested
		res.Failed += p.ingested - p.completed
		d.PassWallS = append(d.PassWallS, float64(p.wallNs)/1e9)
	}
	d.Passes = len(passes)
	if len(passes) > 0 {
		d.Fingerprint = fpString(passes[0].fp)
	}
	if res.Attempted == 0 {
		res.Attempted = int64(in.jobs)
	}
	res.Correct = d.passed()
	if !res.Correct {
		res.Failed = res.Attempted
	}
	d.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	return res, d
}

// runEndToEnd repeats (set-up, pass) for about `seconds` seconds with tracing
// off and reports the median of each metric over the passes.
func runEndToEnd(in *inputs, seconds float64, res *runResult, d *runDetail) ([]*passResult, error) {
	var passes []*passResult
	begin := time.Now()
	for {
		p, err := runPass(in, passOpts{})
		if err != nil {
			return passes, err
		}
		passes = append(passes, p)
		// Stop where one more pass would overshoot the budget by more than
		// it undershoots now.
		elapsed := time.Since(begin).Seconds()
		if elapsed+0.5*elapsed/float64(len(passes)) > seconds {
			break
		}
	}

	conserved, repeats := true, true
	for _, p := range passes {
		conserved = conserved && p.conserved()
		repeats = repeats && p.fp == passes[0].fp
	}
	d.check(checkConserved, conserved, "completed + lost != ingested, or jobs were lost")
	d.check(checkRepeatable, repeats, "fingerprint differs between passes of one seed")

	// A set-up without an offline phase takes well under a millisecond, too
	// short for three or four samples to give a steady median: take more.
	setups := make([]float64, len(passes))
	for i, p := range passes {
		setups[i] = float64(p.setupNs) / 1e9
	}
	for len(setups) < cheapSetupSamples && median(setups) < cheapSetupS {
		s, _, ns, err := setUp(in, passOpts{})
		if err != nil {
			return passes, err
		}
		if err := s.Close(); err != nil {
			return passes, err
		}
		setups = append(setups, float64(ns)/1e9)
	}

	over := func(f func(*passResult) float64) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p)
		}
		return median(v)
	}
	perJob := func(total func(*passResult) float64) float64 {
		return over(func(p *passResult) float64 { return total(p) / float64(p.ingested) })
	}
	first := passes[0].res.Summary
	values := map[string]float64{
		"jobs_per_s":        over((*passResult).jobsPerS),
		"setup_s":           median(setups),
		"us_per_job_p50":    over(func(p *passResult) float64 { return quantile(p.chunkUs, 0.50) }),
		"us_per_job_p95":    over(func(p *passResult) float64 { return quantile(p.chunkUs, 0.95) }),
		"cpu_us_per_job":    perJob(func(p *passResult) float64 { return p.cpuS * 1e6 }),
		"allocs_per_job":    perJob(func(p *passResult) float64 { return float64(p.mallocs) }),
		"bytes_per_job":     perJob(func(p *passResult) float64 { return float64(p.bytes) }),
		"peak_rss_mb":       peakRSSMB(),
		"sim_energy_kwh":    first.EnergykWh,
		"sim_avg_latency_s": first.AvgLatencySec,
	}
	d.EndToEnd = map[string]measured{}
	for _, def := range endToEnd {
		if v, ok := values[def.Name]; ok {
			d.EndToEnd[def.Name] = measured{Value: v, Unit: def.Unit}
			if !def.internalOnly {
				res.Metrics[def.Name] = d.EndToEnd[def.Name]
			}
		}
	}
	return passes, nil
}

// runTraced runs the workload once untraced and once traced, reports the
// per-layer metrics of the traced pass, and executes the checks that need a
// second opinion: traced == untraced, sharded == strict, resumed ==
// uninterrupted, and the ledger's coverage.
func runTraced(in *inputs, res *runResult, d *runDetail) ([]*passResult, error) {
	w := in.w
	plain, err := runPass(in, passOpts{})
	if err != nil {
		return nil, err
	}
	passes := []*passResult{plain}
	traced, err := runPass(in, passOpts{traced: true})
	if err != nil {
		return passes, err
	}
	passes = append(passes, traced)
	d.check(checkConserved, plain.conserved() && traced.conserved(), "completed + lost != ingested, or jobs were lost")
	d.check(checkRepeatable, traced.fp == plain.fp,
		"traced %s != untraced %s: the decorators or the per-event drive changed the result", fpString(traced.fp), fpString(plain.fp))
	if w.shards > 1 {
		strict, err := runPass(in, passOpts{strict: true})
		if err != nil {
			return passes, err
		}
		passes = append(passes, strict)
		d.check(checkShardedSame, strict.fp == plain.fp, "strict %s != sharded %s", fpString(strict.fp), fpString(plain.fp))
	}
	if w.trips > 0 {
		whole, err := runPass(in, passOpts{uninterrupted: true})
		if err != nil {
			return passes, err
		}
		passes = append(passes, whole)
		d.check(checkResumeSame, whole.fp == plain.fp, "uninterrupted %s != resumed %s", fpString(whole.fp), fpString(plain.fp))
	}

	res.Metrics = layerMetrics(w, traced, plain.wallNs)
	coverage := res.Metrics["ledger.coverage"].Value
	if w.shards <= 1 {
		d.check(checkCoverage, coverage >= minCoverage, "ledger covers %.3f of the traced pass, below %.2f", coverage, minCoverage)
	}
	d.Ledger = ledger(res.Metrics, traced.ingested, float64(traced.wallNs)/1e9)
	return passes, nil
}
