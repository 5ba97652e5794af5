package telemetry

import (
	"hierdrl/internal/checkpoint"
)

// Job classes for per-class latency rollups. Jobs carry no class tag in the
// trace schema, so telemetry classes are deterministic duration buckets over
// the paper's clipped duration range [60 s, 7200 s]: short < 600 s,
// medium < 3600 s, long otherwise. The bucket is a pure function of the
// job's nominal duration.
const (
	ClassShort = iota
	ClassMedium
	ClassLong
	NumJobClasses
)

// JobClassNames are the /metrics label values, indexed by class.
var JobClassNames = [NumJobClasses]string{"short", "medium", "long"}

// JobClassOf buckets a nominal job duration (seconds) into a class.
func JobClassOf(durationSec float64) int {
	switch {
	case durationSec < 600:
		return ClassShort
	case durationSec < 3600:
		return ClassMedium
	default:
		return ClassLong
	}
}

// SketchSet is the session's live quantile state: one latency histogram per
// job class and one wait-time histogram, held by value. The overall latency
// histogram is not kept: it is the classes' sum, which Latency builds on
// read. The zero value is an empty set; Record is the per-completion hot path
// and performs no allocation.
type SketchSet struct {
	class [NumJobClasses]Histogram // latency, by job-duration class
	wait  Histogram                // wait time, all jobs
}

// Record ingests one completion: latency into its class histogram, wait into
// the wait histogram. Zero allocations.
func (s *SketchSet) Record(class int, latencySec, waitSec float64) {
	s.class[class].Add(latencySec)
	s.wait.Add(waitSec)
}

// Latency returns the overall latency histogram: the sum of the class
// histograms, equal to the histogram of every latency recorded.
func (s *SketchSet) Latency() Histogram {
	var h Histogram
	for i := range s.class {
		h.merge(&s.class[i])
	}
	return h
}

// ClassLatency returns the latency histogram of one job class.
func (s *SketchSet) ClassLatency(class int) *Histogram { return &s.class[class] }

// Wait returns the wait-time histogram.
func (s *SketchSet) Wait() *Histogram { return &s.wait }

// State implements checkpoint.Stateful: the class histograms in class order,
// then the wait histogram.
func (s *SketchSet) State(c *checkpoint.Codec) {
	for i := range s.class {
		s.class[i].State(c)
	}
	s.wait.State(c)
}
