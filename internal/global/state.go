package global

import (
	"fmt"

	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
)

// Encoder turns a cluster snapshot plus the arriving job into the paper's
// state representation (Sec. V-A):
//
//	s = [ g_1, ..., g_K, s_j ]
//
// where g_k stacks the per-resource utilizations of the servers in group
// G_k, and s_j = [u_j1..u_jD, d_j] is the job's demand vector plus its
// (normalized) duration. Groups are contiguous index ranges of equal size.
type Encoder struct {
	m, k      int
	groupSize int
	durNorm   float64
}

// NewEncoder builds an encoder for m servers in k equal groups.
func NewEncoder(m, k int, durNormSec float64) (*Encoder, error) {
	if m <= 0 || k <= 0 || m%k != 0 {
		return nil, fmt.Errorf("global: encoder needs K | M, got M=%d K=%d", m, k)
	}
	if durNormSec <= 0 {
		return nil, fmt.Errorf("global: duration normalizer %v", durNormSec)
	}
	return &Encoder{m: m, k: k, groupSize: m / k, durNorm: durNormSec}, nil
}

// GroupDim is the dimensionality of one group state vector.
func (e *Encoder) GroupDim() int { return e.groupSize * cluster.NumResources }

// JobDim is the dimensionality of the job state vector.
func (e *Encoder) JobDim() int { return cluster.NumResources + 1 }

// K returns the group count.
func (e *Encoder) K() int { return e.k }

// GroupSize returns servers per group.
func (e *Encoder) GroupSize() int { return e.groupSize }

// M returns the server count.
func (e *Encoder) M() int { return e.m }

// GroupOf returns the group index of a server.
func (e *Encoder) GroupOf(server int) int {
	if server < 0 || server >= e.m {
		panic(fmt.Sprintf("global: server %d out of range [0,%d)", server, e.m))
	}
	return server / e.groupSize
}

// OffsetOf returns a server's position within its group.
func (e *Encoder) OffsetOf(server int) int { return server % e.groupSize }

// ServerOf returns the server index for (group, offset).
func (e *Encoder) ServerOf(group, offset int) int {
	if group < 0 || group >= e.k || offset < 0 || offset >= e.groupSize {
		panic(fmt.Sprintf("global: (group=%d, offset=%d) out of range", group, offset))
	}
	return group*e.groupSize + offset
}

// State bundles one full DRL state observation.
type State struct {
	Groups []mat.Vec
	Job    mat.Vec
}

// Encode captures the full state at a job arrival.
func (e *Encoder) Encode(v *cluster.View, j *cluster.Job) State {
	var s State
	e.EncodeInto(v, j, &s)
	return s
}

// EncodeInto captures the full state at a job arrival into dst, reusing its
// buffers when already shaped for this encoder. The written values are
// identical to Encode's; after the first call on a given State the refresh
// is allocation-free, which makes the decision epoch's encode step free of
// heap traffic.
func (e *Encoder) EncodeInto(v *cluster.View, j *cluster.Job, dst *State) {
	if v.M != e.m {
		panic(fmt.Sprintf("global: snapshot M=%d encoder M=%d", v.M, e.m))
	}
	e.EnsureShape(dst)
	e.EncodeServersInto(v, dst, 0, e.m)
	e.EncodeJobInto(j, dst)
}

// EnsureShape sizes dst's buffers for this encoder without writing any
// feature, so disjoint server ranges of a pre-shaped state can be filled
// concurrently (EncodeServersInto) before the single-threaded epoch reads it.
func (e *Encoder) EnsureShape(dst *State) {
	if len(dst.Groups) != e.k {
		dst.Groups = make([]mat.Vec, e.k)
	}
	gd := e.GroupDim()
	for k := 0; k < e.k; k++ {
		if len(dst.Groups[k]) != gd {
			dst.Groups[k] = mat.NewVec(gd)
		}
	}
	if len(dst.Job) != e.JobDim() {
		dst.Job = mat.NewVec(e.JobDim())
	}
}

// EncodeServersInto refreshes the group-state features of servers [lo, hi)
// in a pre-shaped dst (see EnsureShape). Every server owns a disjoint
// NumResources-wide strip of its group's vector, so concurrent calls over
// disjoint ranges are race-free — this is the shard-aware encode: each shard
// worker gathers its own servers' features in parallel, and the decision
// epoch's batched Q evaluation reads the assembled state. The per-server
// arithmetic is exactly EncodeInto's, so a range-gathered state is bitwise
// identical to a sequentially encoded one.
//
// Each server's per-resource feature is its *committed* utilization — running
// plus queued demand, clamped at 2.0 — so the agent can distinguish a busy
// server from a backlogged one. (The paper's state is "current resource
// utilization level of each server"; with FCFS head-of-line blocking the
// queued demand is part of that level for any placement-relevant purpose,
// and without it queue-aware allocation is unlearnable.)
func (e *Encoder) EncodeServersInto(v *cluster.View, dst *State, lo, hi int) {
	const maxCommitted = 2.0
	for srv := lo; srv < hi; srv++ {
		g := dst.Groups[srv/e.groupSize]
		o := srv % e.groupSize
		for p := 0; p < cluster.NumResources; p++ {
			committed := v.Util[srv][p] + v.Pending[srv][p]
			if committed > maxCommitted {
				committed = maxCommitted
			}
			g[o*cluster.NumResources+p] = committed
		}
	}
}

// EncodeJobInto refreshes the job part s_j of a pre-shaped dst.
func (e *Encoder) EncodeJobInto(j *cluster.Job, dst *State) {
	for p := 0; p < cluster.NumResources; p++ {
		dst.Job[p] = j.Req[p]
	}
	d := j.Duration / e.durNorm
	if d > 1 {
		d = 1
	}
	dst.Job[cluster.NumResources] = d
}

// Clone deep-copies the state (replay transitions must not alias live
// buffers).
func (s State) Clone() State {
	out := State{Groups: make([]mat.Vec, len(s.Groups)), Job: s.Job.Clone()}
	for i, g := range s.Groups {
		out.Groups[i] = g.Clone()
	}
	return out
}

// CloneInto deep-copies s into dst, reusing dst's buffers when already
// shaped like s. Pooled replay slots use it so storing a transition stops
// allocating once the buffer pool is warm.
func (s State) CloneInto(dst *State) {
	if len(dst.Groups) != len(s.Groups) {
		dst.Groups = make([]mat.Vec, len(s.Groups))
	}
	for i, g := range s.Groups {
		if len(dst.Groups[i]) != len(g) {
			dst.Groups[i] = mat.NewVec(len(g))
		}
		copy(dst.Groups[i], g)
	}
	if len(dst.Job) != len(s.Job) {
		dst.Job = mat.NewVec(len(s.Job))
	}
	copy(dst.Job, s.Job)
}
