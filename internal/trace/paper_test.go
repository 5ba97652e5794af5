package trace_test

import (
	"math"
	"testing"
	"testing/quick"

	"hierdrl"
	"hierdrl/internal/trace"
	"hierdrl/internal/workload"
)

// These tests check the paper workload's calibration (hierdrl.PaperWorkload)
// on the traces it materializes, through this package's statistics.

func paper(n int, seed int64) *trace.Trace {
	tr, err := hierdrl.GenerateTrace(hierdrl.PaperWorkload(n, 30), seed)
	if err != nil {
		panic(err)
	}
	return tr
}

func TestGenerateDeterminism(t *testing.T) {
	a, b, c := paper(500, 42), paper(500, 42), paper(500, 43)
	same := true
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs between same-seed runs", i)
		}
		same = same && a.Jobs[i] == c.Jobs[i]
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateRespectsClips(t *testing.T) {
	for _, j := range paper(2000, 1).Jobs {
		if j.Duration < workload.DefaultMinDuration || j.Duration > workload.DefaultMaxDuration {
			t.Fatalf("job %d duration %v outside [1 min, 2 h]", j.ID, j.Duration)
		}
		for p, r := range j.Req {
			if r < workload.DefaultMinReq || r > workload.DefaultMaxReq {
				t.Fatalf("job %d resource %d demand %v outside [%v,%v]",
					j.ID, p, r, workload.DefaultMinReq, workload.DefaultMaxReq)
			}
		}
	}
}

func TestGenerateMarginals(t *testing.T) {
	// A 20k-job sample must land near the published operating point:
	// inter-arrival ~6.4 s, durations with a heavy tail under 2 h, small CPU
	// demands.
	s := paper(20000, 7).ComputeStats()
	if s.MeanInterArrive < 3 || s.MeanInterArrive > 10 {
		t.Fatalf("mean inter-arrival %v outside plausible band", s.MeanInterArrive)
	}
	if s.MeanDuration < 500 || s.MeanDuration > 1400 {
		t.Fatalf("mean duration %v outside plausible band", s.MeanDuration)
	}
	if s.P95Duration <= s.MeanDuration {
		t.Fatalf("duration distribution not right-skewed: p95 %v mean %v",
			s.P95Duration, s.MeanDuration)
	}
	if s.MeanReq[trace.CPU] < 0.02 || s.MeanReq[trace.CPU] > 0.09 {
		t.Fatalf("mean CPU demand %v outside plausible band", s.MeanReq[trace.CPU])
	}
	// Offered CPU load must fit comfortably in a 30-server cluster but be
	// non-trivial (several servers' worth).
	if s.OfferedLoad[trace.CPU] < 2 || s.OfferedLoad[trace.CPU] > 15 {
		t.Fatalf("offered CPU load %v servers outside [2,15]", s.OfferedLoad[trace.CPU])
	}
}

func TestGenerateWeekJobCount(t *testing.T) {
	// ~95k jobs should span ~one simulated week; test at 1/10 scale.
	span := paper(9500, 3).Span()
	week := 7.0 * 86400 / 10
	if span < week*0.6 || span > week*1.6 {
		t.Fatalf("9500 jobs span %v s, want roughly %v", span, week)
	}
}

func TestGenerateDiurnalModulation(t *testing.T) {
	cfg := hierdrl.PaperWorkload(40000, 30)
	cfg.Mods = nil // isolate the diurnal component
	cfg.Base.Amplitude = 0.5
	tr, err := hierdrl.GenerateTrace(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The modulation sin(2*pi*t/86400 - pi/2) is negative for time-of-day in
	// [0, 6h) and (18h, 24h), positive in (6h, 18h). Compare arrival counts
	// between those windows.
	var lowWin, highWin int
	for _, j := range tr.Jobs {
		tod := math.Mod(j.Arrival, 86400)
		if tod < 21600 || tod >= 64800 {
			lowWin++
		} else {
			highWin++
		}
	}
	if float64(highWin) < 1.2*float64(lowWin) {
		t.Fatalf("diurnal pattern absent: low=%d high=%d", lowWin, highWin)
	}
}

func TestGenerateBurstsIncreaseVariance(t *testing.T) {
	base := hierdrl.PaperWorkload(30000, 30)
	base.Mods = nil
	bursty := hierdrl.PaperWorkload(30000, 30)
	bursty.Mods[0] = hierdrl.WorkloadModulator{Kind: hierdrl.ModMMPP, Factor: 6, MeanEverySec: 1800, MeanLenSec: 600}

	cv := func(cfg hierdrl.WorkloadConfig) float64 {
		tr, err := hierdrl.GenerateTrace(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		var gaps []float64
		for i := 1; i < tr.Len(); i++ {
			gaps = append(gaps, tr.Jobs[i].Arrival-tr.Jobs[i-1].Arrival)
		}
		var sum, sumSq float64
		for _, g := range gaps {
			sum += g
		}
		mean := sum / float64(len(gaps))
		for _, g := range gaps {
			d := g - mean
			sumSq += d * d
		}
		return math.Sqrt(sumSq/float64(len(gaps))) / mean
	}
	if cv(bursty) <= cv(base) {
		t.Fatal("bursty config did not increase inter-arrival variability")
	}
}

// TestConfigValidate: the paper workload validates at every cluster size,
// and GenerateTrace refuses a config that does not (the full rejection table
// is internal/workload's TestConfigValidateTable).
func TestConfigValidate(t *testing.T) {
	for _, m := range []int{1, 6, 30, 40, 4000, 10000} {
		if err := hierdrl.PaperWorkload(1, m).Validate(); err != nil {
			t.Errorf("PaperWorkload(1, %d): %v", m, err)
		}
	}
	for _, cfg := range []hierdrl.WorkloadConfig{hierdrl.PaperWorkload(0, 30), hierdrl.PaperWorkload(10, 0)} {
		if tr, err := hierdrl.GenerateTrace(cfg, 1); err == nil {
			t.Errorf("GenerateTrace accepted %+v and made %d jobs", cfg, tr.Len())
		}
	}
}

// Property: any generated trace passes validation and is arrival-ordered.
func TestGenerateAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, err := hierdrl.GenerateTrace(hierdrl.PaperWorkload(200, 30), seed)
		return err == nil && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamMatchesGenerate: ScaleStream(n, m, s) drained is exactly
// SyntheticTraceForCluster(n, m, s), job for job and bit for bit, and stops
// at n.
func TestStreamMatchesGenerate(t *testing.T) {
	for _, m := range []int{6, 30} {
		want := hierdrl.SyntheticTraceForCluster(2000, m, 31)
		g, err := hierdrl.ScaleStream(2000, m, 31)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			j, ok := g.Next()
			if !ok {
				if i != want.Len() {
					t.Fatalf("m=%d: stream produced %d jobs, want %d", m, i, want.Len())
				}
				break
			}
			if j != want.Jobs[i] {
				t.Fatalf("m=%d job %d: stream %+v trace %+v", m, i, j, want.Jobs[i])
			}
		}
		if g.Produced() != 2000 {
			t.Fatalf("Produced() = %d, want 2000", g.Produced())
		}
		if _, ok := g.Next(); ok {
			t.Fatal("stream produced past n")
		}
	}
}
