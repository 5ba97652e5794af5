package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"hierdrl"
)

var clockBase = time.Now()

// nowNs reads the monotonic clock (time.Since on a monotonic base compiles to
// one nanotime call, ~35 ns here).
func nowNs() int64 { return int64(time.Since(clockBase)) }

// span accumulates one layer boundary: how often it was crossed and for how
// long. Spans live in memory and are written out with the report.
type span struct {
	count  int64
	busyNs int64
}

func (s *span) add(n, d int64) {
	s.count += n
	s.busyNs += d
}

// lap closes a span of n operations that started at t and returns the clock
// reading that ended it, so consecutive spans share one reading and leave no
// unmeasured gap between them.
func (s *span) lap(t, n int64) int64 {
	now := nowNs()
	s.add(n, now-t)
	return now
}

func (s *span) seconds() float64 { return float64(s.busyNs) / 1e9 }

// inputs is what one --seed generates for one workload. The stream generator
// is rebuilt per pass from the same seed; the batch and warmup traces are
// immutable and shared by every pass of the run.
type inputs struct {
	w      *workload
	seed   int64
	jobs   int
	warmup int
	chunks int
	quick  bool
	trace  *hierdrl.Trace
	warm   *hierdrl.Trace
}

func newInputs(w *workload, seed int64, quick bool) *inputs {
	in := &inputs{w: w, seed: seed, quick: quick}
	in.jobs, in.warmup, in.chunks = w.sizes(quick)
	if !w.stream {
		in.trace = hierdrl.SyntheticTraceForCluster(in.jobs, w.m, seed)
	}
	if in.warmup > 0 {
		in.warm = hierdrl.SyntheticTraceForCluster(in.warmup, w.m, seed+1000)
	}
	return in
}

// config builds the program configuration for these inputs. Under -quick the
// fixed-size part of the offline phase shrinks with the traces, so the test
// stays fast under the race detector.
func (in *inputs) config() hierdrl.Config {
	cfg := in.w.config(in.seed, in.warm)
	if in.quick && cfg.Alloc == hierdrl.AllocDRL {
		cfg.AEPretrainEpochs = 4
		cfg.OfflineSweeps = 4
	}
	return cfg
}

// passOpts selects how one pass is driven. The zero value is the measured
// pass of the workload as declared.
type passOpts struct {
	// traced drives Step() one event or epoch at a time and plugs in the
	// timing decorators; end-to-end metrics never come from such a pass.
	traced bool
	// strict forces the single-lane tier (the reference a sharded workload is
	// checked against).
	strict bool
	// uninterrupted skips the checkpoint round trips (the reference a resumed
	// run is checked against).
	uninterrupted bool
}

// passResult is everything one pass measured.
type passResult struct {
	setupNs   int64
	wallNs    int64
	cpuS      float64
	mallocs   uint64
	bytes     uint64
	ingested  int64
	completed int64
	chunkUs   []float64 // per chunk: wall / jobs, microseconds
	res       *hierdrl.Result
	fp        uint64

	// Driver spans, recorded at chunk granularity on every pass.
	next, submit, result, save, restore span
	saveBytes                           int64

	// steps holds the per-event spans of a traced pass (nil otherwise).
	steps *tracer
}

func (r *passResult) jobsPerS() float64 { return float64(r.ingested) / (float64(r.wallNs) / 1e9) }

// conserved is correctness check (1): every ingested job completed, none lost.
func (r *passResult) conserved() bool {
	return r.res != nil && r.res.Summary.JobsLost == 0 && r.completed == r.ingested
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint is FNV-1a over the bit patterns of every float and counter of
// the result: two runs agree on it only if they agree bit for bit.
func fingerprint(res *hierdrl.Result) uint64 {
	h := fnv.New64a()
	mix := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	v := reflect.ValueOf(res.Summary)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			mix(math.Float64bits(f.Float()))
		case reflect.Int, reflect.Int64:
			mix(uint64(f.Int()))
		}
	}
	mix(uint64(res.TotalWakeups))
	mix(uint64(res.TotalShutdowns))
	return h.Sum64()
}

// shards returns the lane count of a pass.
func (o passOpts) shards(w *workload) int {
	if o.strict {
		return 1
	}
	return w.shards
}

// setUp is the timed set-up of one pass: a forced GC, then the generator (on
// stream workloads) and NewSession — for DRL configurations the whole
// Algorithm-1 offline phase.
func setUp(in *inputs, o passOpts) (s *hierdrl.Session, src *hierdrl.TraceStream, ns int64, err error) {
	cfg := in.config()
	var opts []hierdrl.SessionOption
	if o.shards(in.w) > 1 {
		opts = append(opts, hierdrl.WithShards(o.shards(in.w)))
		if o.traced {
			opts = append(opts, hierdrl.WithEpochTrace(epochRingCap))
		}
	}
	if o.traced && cfg.DPM == hierdrl.DPMRL {
		cfg.DPM = tracedDPM
	}
	runtime.GC()
	t := nowNs()
	if in.w.stream {
		if src, err = hierdrl.ScaleStream(in.jobs, in.w.m, in.seed); err != nil {
			return nil, nil, 0, err
		}
	}
	if s, err = hierdrl.NewSession(cfg, opts...); err != nil {
		return nil, nil, 0, err
	}
	return s, src, nowNs() - t, nil
}

// runPass sets a session up and drives one closed-loop pass over the inputs:
// the clock advances chunk by chunk and calls never overlap.
func runPass(in *inputs, o passOpts) (r *passResult, err error) {
	w := in.w
	trips := w.trips
	if o.uninterrupted {
		trips = 0
	}
	r = &passResult{chunkUs: make([]float64, 0, in.chunks)}
	if o.traced {
		r.steps = newTracer(in.jobs)
	}
	// The driver's own buffers are allocated before the measured interval.
	var buf []hierdrl.Job
	var ckpt bytes.Buffer
	chunk := &hierdrl.Trace{}
	if w.stream {
		buf = make([]hierdrl.Job, 0, in.jobs/in.chunks+1)
	}

	s, src, setupNs, err := setUp(in, o)
	if err != nil {
		return nil, err
	}
	r.setupNs = setupNs
	defer func() {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}()
	if r.steps != nil {
		if err := r.steps.begin(s, w.drl()); err != nil {
			return nil, err
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := nowNs()
	t := start
	if !w.stream {
		if err := s.SubmitTrace(in.trace); err != nil {
			return nil, err
		}
		t = r.submit.lap(t, int64(in.jobs))
	}
	done, trip := 0, 1
	for c := 0; c < in.chunks; c++ {
		end := (c + 1) * in.jobs / in.chunks
		n := end - done
		done = end
		chunkStart := t
		var last float64
		if w.stream {
			buf = buf[:0]
			for len(buf) < n {
				j, ok := src.Next()
				if !ok {
					return nil, fmt.Errorf("generator ended after %d of %d jobs", done-n+len(buf), in.jobs)
				}
				buf = append(buf, j)
			}
			t = r.next.lap(t, int64(n))
			chunk.Jobs = buf
			if err := s.SubmitTrace(chunk); err != nil {
				return nil, err
			}
			t = r.submit.lap(t, int64(n))
			last = buf[n-1].Arrival
		} else {
			last = in.trace.Jobs[end-1].Arrival
		}
		final := c == in.chunks-1
		if r.steps == nil {
			if err := s.StepUntil(hierdrl.Time(last)); err != nil {
				return nil, err
			}
			if final {
				if err := s.Drain(); err != nil {
					return nil, err
				}
			}
			t = nowNs()
		} else {
			if t, err = r.steps.advance(s, t, w.stream, int64(done), final); err != nil {
				return nil, err
			}
		}
		r.chunkUs = append(r.chunkUs, float64(t-chunkStart)/1e3/float64(n))

		if trip <= trips && c+1 == trip*in.chunks/(trips+1) {
			// Checkpoint to memory -> Restore -> Close the old session ->
			// continue on the restored one.
			trip++
			ckpt.Reset()
			if err := s.Checkpoint(&ckpt); err != nil {
				return nil, err
			}
			t = r.save.lap(t, 1)
			r.saveBytes += int64(ckpt.Len())
			restored, err := hierdrl.Restore(bytes.NewReader(ckpt.Bytes()))
			if err != nil {
				return nil, err
			}
			if err := s.Close(); err != nil {
				restored.Close()
				return nil, err
			}
			s = restored
			t = r.restore.lap(t, 1)
		}
	}
	r.res, err = s.Result()
	if err != nil {
		return nil, err
	}
	t = r.result.lap(t, 1)
	r.wallNs = t - start
	r.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.ingested, r.completed = s.Ingested(), s.Completed()
	r.fp = fingerprint(r.res)
	if r.steps != nil {
		if err := r.steps.end(s, o.shards(w)); err != nil {
			return nil, err
		}
	}
	return r, nil
}
