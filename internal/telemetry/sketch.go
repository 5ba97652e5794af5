package telemetry

import (
	"hierdrl/internal/checkpoint"
)

// Job classes for per-class latency rollups. Jobs carry no class tag in the
// trace schema, so telemetry classes are deterministic duration buckets over
// the paper's clipped duration range [60 s, 7200 s]: short < 600 s,
// medium < 3600 s, long otherwise. The bucket is a pure function of the
// job's nominal duration, so it is identical across tiers and shard counts.
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

// SketchSet is the session's live quantile state: one latency digest per
// shard (fed in merged replay order on the coordinator, merged
// deterministically at publish points), one latency digest per job class,
// and one wait-time digest. Everything is preallocated; Record is the
// per-completion hot path and performs no allocation.
type SketchSet struct {
	shards []TDigest // latency, by completing server's shard
	class  []TDigest // latency, by job-duration class
	wait   TDigest   // wait time, all jobs

	merged TDigest // scratch output of MergedLatency
	parts  []*TDigest
}

// NewSketchSet builds the digest set for p shards (p >= 1).
func NewSketchSet(p int) *SketchSet {
	if p < 1 {
		p = 1
	}
	s := &SketchSet{
		shards: make([]TDigest, p),
		class:  make([]TDigest, NumJobClasses),
		parts:  make([]*TDigest, p),
	}
	for i := range s.shards {
		s.shards[i].Init(DefaultCompression)
		s.parts[i] = &s.shards[i]
	}
	for i := range s.class {
		s.class[i].Init(DefaultCompression)
	}
	s.wait.Init(DefaultCompression)
	s.merged.Init(DefaultCompression)
	return s
}

// Shards returns the configured shard count.
func (s *SketchSet) Shards() int { return len(s.shards) }

// Record ingests one completion: latency into the shard and class digests,
// wait into the wait digest. Zero allocations.
func (s *SketchSet) Record(shard, class int, latencySec, waitSec float64) {
	s.shards[shard].Add(latencySec)
	s.class[class].Add(latencySec)
	s.wait.Add(waitSec)
}

// MergedLatency merges the per-shard latency digests (ascending shard
// order into a (mean, weight)-sorted one-shot compression — the result is
// bitwise independent of shard order, see MergedInto) and returns the
// merged digest. The returned digest is owned by the set and valid until
// the next call.
func (s *SketchSet) MergedLatency() *TDigest {
	MergedInto(&s.merged, s.parts...)
	return &s.merged
}

// ClassLatency returns the latency digest of one job class.
func (s *SketchSet) ClassLatency(class int) *TDigest { return &s.class[class] }

// Wait returns the wait-time digest.
func (s *SketchSet) Wait() *TDigest { return &s.wait }

// State implements checkpoint.Stateful: every digest (merged scratch
// excluded — derived). The set must have been built with the saved shard
// count.
func (s *SketchSet) State(c *checkpoint.Codec) {
	np, nc := len(s.shards), len(s.class)
	c.Int(&np)
	if np != len(s.shards) {
		c.Fail(checkpoint.ErrCorrupt, "sketch set has %d shard digests, session %d", np, len(s.shards))
	}
	for i := range s.shards {
		s.shards[i].State(c)
	}
	c.Int(&nc)
	if nc != len(s.class) {
		c.Fail(checkpoint.ErrCorrupt, "sketch set has %d class digests, want %d", nc, len(s.class))
	}
	for i := range s.class {
		s.class[i].State(c)
	}
	s.wait.State(c)
}
