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

// SketchSet is the session's live quantile state: one latency histogram, one
// latency histogram per job class, and one wait-time histogram, held by
// value. The zero value is an empty set; Record is the per-completion hot
// path and performs no allocation.
type SketchSet struct {
	latency Histogram                // latency, all jobs
	class   [NumJobClasses]Histogram // latency, by job-duration class
	wait    Histogram                // wait time, all jobs
}

// Record ingests one completion: latency into the overall and class
// histograms, wait into the wait histogram. Zero allocations.
func (s *SketchSet) Record(class int, latencySec, waitSec float64) {
	s.latency.Add(latencySec)
	s.class[class].Add(latencySec)
	s.wait.Add(waitSec)
}

// Latency returns the overall latency histogram.
func (s *SketchSet) Latency() *Histogram { return &s.latency }

// ClassLatency returns the latency histogram of one job class.
func (s *SketchSet) ClassLatency(class int) *Histogram { return &s.class[class] }

// Wait returns the wait-time histogram.
func (s *SketchSet) Wait() *Histogram { return &s.wait }

// State implements checkpoint.Stateful: the five histograms in a fixed order.
func (s *SketchSet) State(c *checkpoint.Codec) {
	s.latency.State(c)
	for i := range s.class {
		s.class[i].State(c)
	}
	s.wait.State(c)
}
