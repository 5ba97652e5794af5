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

// SketchSet is the session's live quantile state: one latency digest, one
// latency digest per job class, and one wait-time digest. Everything is
// preallocated; Record is the per-completion hot path and performs no
// allocation.
type SketchSet struct {
	latency TDigest   // latency, all jobs
	class   []TDigest // latency, by job-duration class
	wait    TDigest   // wait time, all jobs

	merged TDigest // scratch output of Latency
}

// NewSketchSet builds the digest set.
func NewSketchSet() *SketchSet {
	s := &SketchSet{class: make([]TDigest, NumJobClasses)}
	s.latency.Init(DefaultCompression)
	for i := range s.class {
		s.class[i].Init(DefaultCompression)
	}
	s.wait.Init(DefaultCompression)
	s.merged.Init(DefaultCompression)
	return s
}

// Record ingests one completion: latency into the overall and class
// digests, wait into the wait digest. Zero allocations.
func (s *SketchSet) Record(class int, latencySec, waitSec float64) {
	s.latency.Add(latencySec)
	s.class[class].Add(latencySec)
	s.wait.Add(waitSec)
}

// Latency returns the overall latency digest recompressed in one
// (mean, weight)-sorted pass (MergedInto over the single digest). The summary
// quantiles have always been read from that recompression, so reading it
// keeps them bit for bit. The returned digest is owned by the set and valid
// until the next call.
func (s *SketchSet) Latency() *TDigest {
	MergedInto(&s.merged, &s.latency)
	return &s.merged
}

// ClassLatency returns the latency digest of one job class.
func (s *SketchSet) ClassLatency(class int) *TDigest { return &s.class[class] }

// Wait returns the wait-time digest.
func (s *SketchSet) Wait() *TDigest { return &s.wait }

// State implements checkpoint.Stateful: every digest (merged scratch
// excluded — derived). The leading latency-digest count is always 1: format
// v4 keeps the word, which once counted one digest per engine shard.
func (s *SketchSet) State(c *checkpoint.Codec) {
	np, nc := 1, len(s.class)
	c.Int(&np)
	if np != 1 {
		c.Fail(checkpoint.ErrCorrupt, "sketch set has %d latency digests, want 1", np)
	}
	s.latency.State(c)
	c.Int(&nc)
	if nc != len(s.class) {
		c.Fail(checkpoint.ErrCorrupt, "sketch set has %d class digests, want %d", nc, len(s.class))
	}
	for i := range s.class {
		s.class[i].State(c)
	}
	s.wait.State(c)
}
