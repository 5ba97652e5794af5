// Package trace models the Google cluster-usage workload the paper
// evaluates on: job records with an arrival time, a duration, and per-job
// CPU/memory/disk demands normalized to one server. The real traces are
// proprietary-scale (and not redistributable here), so internal/workload
// synthesizes jobs that match the published marginals — diurnal, bursty
// arrivals; heavy-tailed durations clipped to [1 min, 2 h]; small fractional
// resource requests — and this package's CSV codec lets genuinely extracted
// traces be dropped in unchanged.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// NumResources is the number of resource dimensions (CPU, memory, disk), the
// |D| of the paper.
const NumResources = 3

// Resource dimension indices.
const (
	CPU = iota
	Memory
	Disk
)

// Job is one VM/job request extracted from (or synthesized to match) the
// Google cluster traces.
type Job struct {
	// ID is the position of the job in the trace (0-based, arrival order).
	ID int
	// Arrival is the absolute arrival time in seconds from trace start.
	Arrival float64
	// Duration is the job execution time in seconds (resource-holding time
	// once started). The paper clips durations to [60 s, 7200 s].
	Duration float64
	// Req holds the CPU/memory/disk demands, normalized to one server
	// (each in (0, 1]).
	Req [NumResources]float64
}

// Validate checks the invariants every job must satisfy. The comparisons
// are written in the affirmative so NaN fields (which compare false either
// way) are rejected rather than slipping through.
func (j Job) Validate() error {
	if !(j.Arrival >= 0) || math.IsInf(j.Arrival, 0) {
		return fmt.Errorf("trace: job %d: invalid arrival %v", j.ID, j.Arrival)
	}
	if !(j.Duration > 0) || math.IsInf(j.Duration, 0) {
		return fmt.Errorf("trace: job %d: invalid duration %v", j.ID, j.Duration)
	}
	for p, r := range j.Req {
		if !(r > 0 && r <= 1) {
			return fmt.Errorf("trace: job %d: resource %d demand %v outside (0,1]", j.ID, p, r)
		}
	}
	return nil
}

// Trace is an arrival-ordered sequence of jobs.
type Trace struct {
	Jobs []Job
}

// Validate checks per-job invariants and global arrival ordering.
func (t *Trace) Validate() error {
	prev := -1.0
	for i, j := range t.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if j.ID != i {
			return fmt.Errorf("trace: job at position %d has ID %d", i, j.ID)
		}
		if j.Arrival < prev {
			return fmt.Errorf("trace: job %d arrives at %v before predecessor at %v",
				j.ID, j.Arrival, prev)
		}
		prev = j.Arrival
	}
	return nil
}

// Len returns the number of jobs.
func (t *Trace) Len() int { return len(t.Jobs) }

// Span returns the time between the first and last arrival, or 0 for traces
// with fewer than two jobs.
func (t *Trace) Span() float64 {
	if len(t.Jobs) < 2 {
		return 0
	}
	return t.Jobs[len(t.Jobs)-1].Arrival - t.Jobs[0].Arrival
}

// Slice returns a sub-trace with jobs [from, to) re-IDed from 0 and arrival
// times rebased so the first job arrives at 0.
func (t *Trace) Slice(from, to int) *Trace {
	if from < 0 || to > len(t.Jobs) || from > to {
		panic(fmt.Sprintf("trace: Slice bounds [%d,%d) of %d", from, to, len(t.Jobs)))
	}
	out := &Trace{Jobs: make([]Job, to-from)}
	if to == from {
		return out
	}
	base := t.Jobs[from].Arrival
	for i := from; i < to; i++ {
		j := t.Jobs[i]
		j.ID = i - from
		j.Arrival -= base
		out.Jobs[i-from] = j
	}
	return out
}

// Segments splits the trace into n contiguous segments of (nearly) equal job
// count, mirroring the paper's "split the traces into 200 segments" step.
func (t *Trace) Segments(n int) []*Trace {
	if n <= 0 {
		panic(fmt.Sprintf("trace: Segments with n=%d", n))
	}
	out := make([]*Trace, 0, n)
	per := len(t.Jobs) / n
	rem := len(t.Jobs) % n
	start := 0
	for i := 0; i < n; i++ {
		size := per
		if i < rem {
			size++
		}
		out = append(out, t.Slice(start, start+size))
		start += size
	}
	return out
}

// Stats summarizes a trace for calibration and test assertions.
type Stats struct {
	Jobs            int
	Span            float64
	MeanInterArrive float64
	MeanDuration    float64
	P95Duration     float64
	MeanReq         [NumResources]float64
	// OfferedLoad is the long-run average resource demand in units of
	// servers: sum over jobs of duration*req / span, per dimension.
	OfferedLoad [NumResources]float64
}

// ComputeStats scans the trace once and returns its summary statistics.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Jobs: len(t.Jobs), Span: t.Span()}
	if len(t.Jobs) == 0 {
		return s
	}
	durations := make([]float64, 0, len(t.Jobs))
	var durSum float64
	var reqSum [NumResources]float64
	var loadSum [NumResources]float64
	for _, j := range t.Jobs {
		durSum += j.Duration
		durations = append(durations, j.Duration)
		for p := 0; p < NumResources; p++ {
			reqSum[p] += j.Req[p]
			loadSum[p] += j.Req[p] * j.Duration
		}
	}
	n := float64(len(t.Jobs))
	s.MeanDuration = durSum / n
	sort.Float64s(durations)
	s.P95Duration = durations[int(0.95*float64(len(durations)-1))]
	for p := 0; p < NumResources; p++ {
		s.MeanReq[p] = reqSum[p] / n
	}
	if s.Span > 0 {
		s.MeanInterArrive = s.Span / float64(len(t.Jobs)-1)
		for p := 0; p < NumResources; p++ {
			s.OfferedLoad[p] = loadSum[p] / s.Span
		}
	}
	return s
}

// WriteCSV writes the trace in the canonical format:
// one "arrival,duration,cpu,mem,disk" row per job, with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	i := 0
	return WriteCSVStream(w, func() (Job, bool) {
		if i == len(t.Jobs) {
			return Job{}, false
		}
		i++
		return t.Jobs[i-1], true
	})
}

// WriteCSVStream writes jobs pulled from next (until it reports false) in
// the canonical CSV format, without requiring the workload to exist in
// memory — the scale-10k preset writes 2M-job traces through it.
func WriteCSVStream(w io.Writer, next func() (Job, bool)) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("arrival,duration,cpu,mem,disk\n"); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for {
		j, ok := next()
		if !ok {
			break
		}
		_, err := fmt.Fprintf(bw, "%s,%s,%s,%s,%s\n",
			formatF(j.Arrival), formatF(j.Duration),
			formatF(j.Req[CPU]), formatF(j.Req[Memory]), formatF(j.Req[Disk]))
		if err != nil {
			return fmt.Errorf("trace: write job %d: %w", j.ID, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

func formatF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// ParseCSVRow parses one canonical "arrival,duration,cpu,mem,disk" row into
// a Job. The caller owns ID assignment and semantic checking (Job.Validate);
// this is the single definition of the row syntax, shared by ReadCSV and
// streaming ingestion frontends.
func ParseCSVRow(text string) (Job, error) {
	j, err := parseCSVRow(text)
	if err != nil {
		return Job{}, fmt.Errorf("trace: %w", err)
	}
	return j, nil
}

func parseCSVRow(text string) (Job, error) {
	fields := strings.Split(text, ",")
	if len(fields) != 5 {
		return Job{}, fmt.Errorf("want 5 fields, got %d", len(fields))
	}
	var vals [5]float64
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return Job{}, fmt.Errorf("field %d: %w", i, err)
		}
		vals[i] = v
	}
	return Job{
		Arrival:  vals[0],
		Duration: vals[1],
		Req:      [NumResources]float64{vals[2], vals[3], vals[4]},
	}, nil
}

// ReadCSV parses a trace in the canonical CSV format and validates it.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if line == 1 && strings.HasPrefix(text, "arrival") {
			continue
		}
		j, err := parseCSVRow(text)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		j.ID = len(t.Jobs)
		t.Jobs = append(t.Jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
