package workload

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"hierdrl/internal/trace"
)

// validConfig returns a minimal known-good configuration.
func validConfig() Config {
	return Config{
		NumJobs: 100,
		Base:    Base{Kind: BaseConstant, Rate: 0.2},
		Classes: []Class{{
			Name:           "c",
			Weight:         1,
			Duration:       Dist{Kind: DistExponential, Mean: 300},
			CPU:            Dist{Kind: DistLogNormal, Median: 0.03, Sigma: 0.5},
			MemCorrelation: 0.7,
			Disk:           Dist{Kind: DistLogNormal, Median: 0.01, Sigma: 0.5},
		}},
	}
}

// MustSource is NewSource for known-good configs.
func MustSource(cfg Config, seed int64) *Source {
	s, err := NewSource(cfg, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// TestConfigValidateTable exercises the validation hardening: non-positive
// rates, NaN/Inf parameters, empty class mixes, broken weight sums, and
// inverted clip ranges must all be rejected with a descriptive error.
func TestConfigValidateTable(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // "" = must validate
	}{
		{"valid-minimal", func(c *Config) {}, ""},
		{"valid-diurnal", func(c *Config) {
			c.Base = Base{Kind: BaseDiurnal, Rate: 0.2, Amplitude: 0.35}
		}, ""},
		{"valid-ramp", func(c *Config) {
			c.Base = Base{Kind: BaseRamp, Rate: 0.1, EndRate: 0.3, RampSec: 86400}
		}, ""},
		{"valid-mods", func(c *Config) {
			c.Mods = []Modulator{
				{Kind: ModMMPP, Factor: 2, MeanEverySec: 3600, MeanLenSec: 300},
				{Kind: ModFlash, AtSec: 100, Peak: 5, RampUpSec: 60, HoldSec: 60, DecaySec: 60},
			}
		}, ""},
		{"valid-two-classes", func(c *Config) {
			second := c.Classes[0]
			c.Classes[0].Weight = 0.25
			second.Weight = 0.75
			second.Duration = Dist{Kind: DistPareto, Alpha: 1.5, Xm: 300}
			c.Classes = append(c.Classes, second)
		}, ""},

		{"zero-jobs", func(c *Config) { c.NumJobs = 0 }, "NumJobs"},
		{"unknown-base-kind", func(c *Config) { c.Base.Kind = "sawtooth" }, "unknown base kind"},
		{"zero-rate", func(c *Config) { c.Base.Rate = 0 }, "Rate"},
		{"negative-rate", func(c *Config) { c.Base.Rate = -1 }, "Rate"},
		{"nan-rate", func(c *Config) { c.Base.Rate = nan }, "Rate"},
		{"inf-rate", func(c *Config) { c.Base.Rate = inf }, "Rate"},
		{"rate-below-floor", func(c *Config) { c.Base.Rate = 1e-320 }, "MinRate"},
		{"ramp-end-below-floor", func(c *Config) {
			c.Base = Base{Kind: BaseRamp, Rate: 0.1, EndRate: MinRate / 2, RampSec: 86400}
		}, "MinRate"},
		{"amplitude-one", func(c *Config) {
			c.Base = Base{Kind: BaseDiurnal, Rate: 0.2, Amplitude: 1}
		}, "Amplitude"},
		{"amplitude-nan", func(c *Config) {
			c.Base = Base{Kind: BaseDiurnal, Rate: 0.2, Amplitude: nan}
		}, "Amplitude"},
		{"nan-period", func(c *Config) {
			c.Base = Base{Kind: BaseDiurnal, Rate: 0.2, PeriodSec: nan}
		}, "PeriodSec"},
		{"period-below-one-second", func(c *Config) {
			c.Base = Base{Kind: BaseDiurnal, Rate: 0.2, PeriodSec: 1e-320}
		}, "PeriodSec"},
		{"phase-beyond-period", func(c *Config) {
			c.Base = Base{Kind: BaseDiurnal, Rate: 0.2, PhaseSec: 1e308}
		}, "PhaseSec"},
		{"valid-phase-and-period", func(c *Config) {
			c.Base = Base{Kind: BaseDiurnal, Rate: 0.2, Amplitude: 0.3, PeriodSec: 3600, PhaseSec: -1800}
		}, ""},
		{"ramp-zero-end", func(c *Config) {
			c.Base = Base{Kind: BaseRamp, Rate: 0.1, EndRate: 0, RampSec: 86400}
		}, "ramp rates"},
		{"ramp-zero-span", func(c *Config) {
			c.Base = Base{Kind: BaseRamp, Rate: 0.1, EndRate: 0.2, RampSec: 0}
		}, "RampSec"},

		{"unknown-mod-kind", func(c *Config) {
			c.Mods = []Modulator{{Kind: "square"}}
		}, "unknown modulator kind"},
		{"mmpp-sub-unit-factor", func(c *Config) {
			c.Mods = []Modulator{{Kind: ModMMPP, Factor: 0.5, MeanEverySec: 3600, MeanLenSec: 300}}
		}, "Factor"},
		{"mmpp-nan-timing", func(c *Config) {
			c.Mods = []Modulator{{Kind: ModMMPP, Factor: 2, MeanEverySec: nan, MeanLenSec: 300}}
		}, "burst timing"},
		{"flash-sub-unit-peak", func(c *Config) {
			c.Mods = []Modulator{{Kind: ModFlash, Peak: 0.5}}
		}, "Peak"},
		{"flash-negative-phase", func(c *Config) {
			c.Mods = []Modulator{{Kind: ModFlash, Peak: 2, RampUpSec: -1}}
		}, "phase durations"},
		{"flash-repeat-too-short", func(c *Config) {
			c.Mods = []Modulator{{Kind: ModFlash, Peak: 2, RampUpSec: 60, HoldSec: 60, DecaySec: 60, RepeatEverySec: 100}}
		}, "RepeatEverySec"},

		{"empty-classes", func(c *Config) { c.Classes = nil }, "empty class mix"},
		{"weights-dont-sum", func(c *Config) { c.Classes[0].Weight = 0.8 }, "weights sum"},
		{"zero-weight", func(c *Config) { c.Classes[0].Weight = 0 }, "Weight"},
		{"nan-weight", func(c *Config) { c.Classes[0].Weight = nan }, "Weight"},
		{"unknown-dist-kind", func(c *Config) { c.Classes[0].Duration.Kind = "beta" }, "unknown distribution"},
		{"exp-zero-mean", func(c *Config) {
			c.Classes[0].Duration = Dist{Kind: DistExponential, Mean: 0}
		}, "Mean"},
		{"pareto-zero-alpha", func(c *Config) {
			c.Classes[0].Duration = Dist{Kind: DistPareto, Alpha: 0, Xm: 100}
		}, "Alpha"},
		{"lognormal-inf-median", func(c *Config) {
			c.Classes[0].CPU = Dist{Kind: DistLogNormal, Median: inf, Sigma: 0.5}
		}, "Median"},
		{"lognormal-negative-sigma", func(c *Config) {
			c.Classes[0].CPU = Dist{Kind: DistLogNormal, Median: 0.03, Sigma: -1}
		}, "Sigma"},
		{"memcorr-above-one", func(c *Config) { c.Classes[0].MemCorrelation = 1.5 }, "MemCorrelation"},
		{"memcorr-nan", func(c *Config) { c.Classes[0].MemCorrelation = nan }, "MemCorrelation"},
		{"inverted-duration-clip", func(c *Config) {
			c.Classes[0].MinDuration = 600
			c.Classes[0].MaxDuration = 60
		}, "duration clip"},
		{"inverted-demand-clip", func(c *Config) {
			c.Classes[0].MinReq = 0.5
			c.Classes[0].MaxReq = 0.1
		}, "demand clip"},
		{"demand-clip-above-capacity", func(c *Config) {
			c.Classes[0].MaxReq = 1.5
		}, "demand clip"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestSourceDeterministic pins the reproducibility contract: same
// (seed, config) => bitwise-identical job sequence; a different seed
// diverges.
func TestSourceDeterministic(t *testing.T) {
	cfg := validConfig()
	cfg.NumJobs = 500
	cfg.Mods = []Modulator{{Kind: ModMMPP, Factor: 2, MeanEverySec: 3600, MeanLenSec: 300}}
	a := MustSource(cfg, 42)
	b := MustSource(cfg, 42)
	c := MustSource(cfg, 43)
	diverged := false
	for {
		ja, oka := a.Next()
		jb, okb := b.Next()
		jc, okc := c.Next()
		if oka != okb || oka != okc {
			t.Fatalf("stream lengths diverged")
		}
		if !oka {
			break
		}
		if ja != jb {
			t.Fatalf("job %d differs across identical sources: %+v vs %+v", ja.ID, ja, jb)
		}
		if ja != jc {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical sequences")
	}
}

// TestComponentStreamIsolation pins the per-component RNG chaining: adding a
// deterministic flash modulator changes arrival instants (the rate profile
// moved) but not a single attribute draw — durations and demands are
// bitwise-unchanged because each class samples from its own stream.
func TestComponentStreamIsolation(t *testing.T) {
	plain := validConfig()
	plain.NumJobs = 300
	spiked := plain
	spiked.Mods = []Modulator{{Kind: ModFlash, AtSec: 10, Peak: 8, RampUpSec: 30, HoldSec: 120, DecaySec: 30}}

	a, b := MustSource(plain, 7), MustSource(spiked, 7)
	arrivalsMoved := false
	for {
		ja, oka := a.Next()
		jb, okb := b.Next()
		if oka != okb {
			t.Fatal("stream lengths diverged")
		}
		if !oka {
			break
		}
		if ja.Duration != jb.Duration || ja.Req != jb.Req {
			t.Fatalf("job %d attributes perturbed by a rate-only modulator: %+v vs %+v", ja.ID, ja, jb)
		}
		if ja.Arrival != jb.Arrival {
			arrivalsMoved = true
		}
	}
	if !arrivalsMoved {
		t.Fatal("8x flash spike left every arrival instant unchanged")
	}
}

// TestClipNormalization pins the zero-clip defaults and that samples land
// inside the clip window.
func TestClipNormalization(t *testing.T) {
	cfg := validConfig()
	cfg.NumJobs = 2000
	cfg.Classes[0].Duration = Dist{Kind: DistPareto, Alpha: 1.1, Xm: 30} // heavy tail, low floor
	src := MustSource(cfg, 1)
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		if j.Duration < DefaultMinDuration || j.Duration > DefaultMaxDuration {
			t.Fatalf("job %d duration %v outside default clip", j.ID, j.Duration)
		}
		for p, v := range j.Req {
			if v < DefaultMinReq || v > DefaultMaxReq {
				t.Fatalf("job %d resource %d demand %v outside default clip", j.ID, p, v)
			}
		}
	}
}

// TestFlashMultiplierShape pins the piecewise-linear spike profile,
// including the repeat period.
func TestFlashMultiplierShape(t *testing.T) {
	m := Modulator{Kind: ModFlash, AtSec: 100, Peak: 5, RampUpSec: 10, HoldSec: 20, DecaySec: 40, RepeatEverySec: 1000}
	for _, tc := range []struct{ t, want float64 }{
		{0, 1}, {99, 1}, {105, 3}, {110, 5}, {120, 5}, {130, 5},
		{150, 3}, {170, 1}, {500, 1},
		{1105, 3}, {1130, 5}, {1170, 1}, // second occurrence
	} {
		if got := flashMultiplier(&m, tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("flashMultiplier(t=%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

// diurnalBursty is validConfig on a diurnal base with one MMPP layer: the
// shape of the paper workload, one class, every per-job code path live.
func diurnalBursty(n int) Config {
	cfg := validConfig()
	cfg.NumJobs = n
	cfg.Base = Base{Kind: BaseDiurnal, Rate: 0.157, Amplitude: 0.35}
	cfg.Mods = []Modulator{{Kind: ModMMPP, Factor: 1.8, MeanEverySec: 4 * 3600, MeanLenSec: 300}}
	cfg.Classes[0].Duration = Dist{Kind: DistLogNormal, Median: 650, Sigma: 0.9}
	return cfg
}

// BenchmarkSourceNext is the per-job cost of the generator, which runs
// beside the measured loop of every streamed run. Nothing else runs between
// two calls, so Next waits on the producer: the figure is the producer's
// per-job cost plus its share of the batch hand-offs.
func BenchmarkSourceNext(b *testing.B) {
	src := MustSource(diurnalBursty(b.N), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Next()
	}
}

// FuzzWorkloadSource: a config that validates yields exactly NumJobs jobs,
// each valid (finite, non-negative arrival; positive finite duration;
// demands in (0, 1]), with IDs in order and non-decreasing arrivals. The
// fuzzed config is one class over any base kind with an optional MMPP
// layer; the 1e-320 seed is a base rate whose arrival gaps overflowed to
// +Inf before Validate enforced MinRate.
func FuzzWorkloadSource(f *testing.F) {
	type args struct {
		seed                   int64
		jobs                   uint16
		kind                   uint8
		rate, amp, end, span   float64
		period, phase          float64
		factor, every, burst   float64
		durMed, durSig         float64
		cpuMed, cpuSig, memCor float64
	}
	for _, a := range []args{
		{1, 500, 1, 0.157, 0.35, 0, 0, 0, 0, 1.8, 14400, 300, 650, 0.9, 0.035, 0.8, 0.7},
		{7, 200, 0, 1e-320, 0, 0, 0, 0, 0, 0, 0, 0, 650, 0.9, 0.035, 0.8, 0.7},
		{3, 300, 2, 0.01, 0, 5, 3600, 0, 0, 6, 1800, 600, 300, 2, 0.1, 3, 1},
		{5, 300, 1, 0.05, 0.9, 0, 0, 3600, -1800, 0, 0, 0, 650, 0.9, 0.035, 0.8, 0.7},
	} {
		f.Add(a.seed, a.jobs, a.kind, a.rate, a.amp, a.end, a.span, a.period, a.phase, a.factor, a.every, a.burst,
			a.durMed, a.durSig, a.cpuMed, a.cpuSig, a.memCor)
	}
	f.Fuzz(func(t *testing.T, seed int64, jobs uint16, kind uint8, rate, amp, end, span, period, phase, factor, every, burst,
		durMed, durSig, cpuMed, cpuSig, memCor float64) {
		cfg := validConfig()
		cfg.NumJobs = 1 + int(jobs%1000)
		cfg.Base = Base{Kind: [...]BaseKind{BaseConstant, BaseDiurnal, BaseRamp}[kind%3],
			Rate: rate, Amplitude: amp, EndRate: end, RampSec: span, PeriodSec: period, PhaseSec: phase}
		if factor != 0 {
			cfg.Mods = []Modulator{{Kind: ModMMPP, Factor: factor, MeanEverySec: every, MeanLenSec: burst}}
		}
		cl := &cfg.Classes[0]
		cl.Duration = Dist{Kind: DistLogNormal, Median: durMed, Sigma: durSig}
		cl.CPU = Dist{Kind: DistLogNormal, Median: cpuMed, Sigma: cpuSig}
		cl.MemCorrelation = memCor
		if cfg.Validate() != nil {
			return
		}
		src := MustSource(cfg, seed)
		prev := 0.0
		for i := 0; i < cfg.NumJobs; i++ {
			j, ok := src.Next()
			if !ok {
				t.Fatalf("source ended after %d of %d jobs", i, cfg.NumJobs)
			}
			if err := j.Validate(); err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			if j.ID != i || j.Arrival < prev {
				t.Fatalf("job %d (ID %d) arrives at %v, before %v", i, j.ID, j.Arrival, prev)
			}
			prev = j.Arrival
		}
		if _, ok := src.Next(); ok {
			t.Fatalf("source yielded more than NumJobs = %d jobs", cfg.NumJobs)
		}
	})
}

// readAheadConfigs are the generator shapes the read-ahead is checked
// against: one class, a multi-class mix, an MMPP layer, a flash crowd, a ramp
// and a diurnal base.
func readAheadConfigs() map[string]Config {
	multi := validConfig()
	second := multi.Classes[0]
	multi.Classes[0].Weight = 0.3
	second.Name, second.Weight = "heavy", 0.7
	second.Duration = Dist{Kind: DistPareto, Alpha: 1.5, Xm: 300}
	second.CPU = Dist{Kind: DistFixed, Mean: 0.2}
	second.MemCorrelation = 1
	multi.Classes = append(multi.Classes, second)
	flash := validConfig()
	flash.Mods = []Modulator{{Kind: ModFlash, AtSec: 600, Peak: 6, RampUpSec: 60, HoldSec: 300, DecaySec: 120, RepeatEverySec: 7200}}
	ramp := validConfig()
	ramp.Base = Base{Kind: BaseRamp, Rate: 0.05, EndRate: 0.4, RampSec: 20000}
	diurnal := validConfig()
	diurnal.Base = Base{Kind: BaseDiurnal, Rate: 0.2, Amplitude: 0.5, PeriodSec: 3600, PhaseSec: 900}
	return map[string]Config{
		"one-class": validConfig(),
		"multi":     multi,
		"mmpp":      diurnalBursty(0),
		"flash":     flash,
		"ramp":      ramp,
		"diurnal":   diurnal,
	}
}

// sameJob reports whether two jobs agree in every field, bit for bit.
func sameJob(a, b trace.Job) bool {
	if a.ID != b.ID || math.Float64bits(a.Arrival) != math.Float64bits(b.Arrival) ||
		math.Float64bits(a.Duration) != math.Float64bits(b.Duration) {
		return false
	}
	for p := range a.Req {
		if math.Float64bits(a.Req[p]) != math.Float64bits(b.Req[p]) {
			return false
		}
	}
	return true
}

// TestReadAheadMatchesGenerator pins the read-ahead to the generator: every
// job Next hands out equals, bit for bit, the one the generator yields run
// inline on the test goroutine, at lengths around the batch and pool
// boundaries; after the last job Next stays false and Produced stays at
// NumJobs. GOMAXPROCS 2 runs the producer, 1 the generator on the caller.
func TestReadAheadMatchesGenerator(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 1} {
		runtime.GOMAXPROCS(procs)
		for name, cfg := range readAheadConfigs() {
			for _, n := range []int{1, batchJobs - 1, batchJobs, batchJobs + 1, poolJobs, poolJobs + 1, 2*poolJobs + batchJobs + 1} {
				cfg.NumJobs = n
				src, ref := MustSource(cfg, 11), MustSource(cfg, 11).gen
				for i := 0; i < n; i++ {
					j, ok := src.Next()
					want, _ := ref.next()
					if !ok {
						t.Fatalf("GOMAXPROCS=%d %s n=%d: Next ended after %d jobs", procs, name, n, i)
					}
					if !sameJob(j, want) {
						t.Fatalf("GOMAXPROCS=%d %s n=%d job %d: Source %+v, generator %+v", procs, name, n, i, j, want)
					}
					if src.Produced() != i+1 {
						t.Fatalf("GOMAXPROCS=%d %s n=%d: Produced() = %d after %d jobs", procs, name, n, src.Produced(), i+1)
					}
				}
				if src.inline != (procs == 1) {
					t.Fatalf("GOMAXPROCS=%d %s n=%d: inline = %v", procs, name, n, src.inline)
				}
				for k := 0; k < 3; k++ {
					if j, ok := src.Next(); ok {
						t.Fatalf("GOMAXPROCS=%d %s n=%d: Next after the last job returned %+v", procs, name, n, j)
					}
					if src.Produced() != n {
						t.Fatalf("GOMAXPROCS=%d %s n=%d: Produced() = %d after exhaustion", procs, name, n, src.Produced())
					}
				}
			}
		}
	}
}

// producers counts the read-ahead producer goroutines in a dump of every
// stack, polling briefly (with a GC each time, so that dropped sources are
// finalized) until the count is want.
func producers(want int) int {
	buf := make([]byte, 1<<16)
	count := func() int {
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		return strings.Count(string(buf[:n]), "internal/workload.(*generator).produce(")
	}
	n := count()
	for i := 0; i < 200 && n != want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		n = count()
	}
	return n
}

// TestAbandonedSourceStopsProducer drops sources part-way through their
// jobs: once they are collected no producer is left. A source read to its
// end stops its producer without being collected. Under GOMAXPROCS=1 no
// producer starts at all.
func TestAbandonedSourceStopsProducer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 1} {
		runtime.GOMAXPROCS(procs)
		if n := producers(0); n != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d producers before the test", procs, n)
		}
		cfg := diurnalBursty(3 * poolJobs)
		held := MustSource(cfg, 1)
		held.Next()
		for _, read := range []int{1, batchJobs, poolJobs / 2, poolJobs + 1} {
			func() {
				src := MustSource(cfg, 2)
				for i := 0; i < read; i++ {
					src.Next()
				}
			}()
		}
		want := 0
		if procs > 1 {
			want = 1
		}
		if n := producers(want); n != want {
			t.Fatalf("GOMAXPROCS=%d: %d producers with one half-read source held, want %d", procs, n, want)
		}
		for _, ok := held.Next(); ok; _, ok = held.Next() {
		}
		if n := producers(0); n != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d producers after a source was read to its end, want 0", procs, n)
		}
		runtime.KeepAlive(held)
	}
}
