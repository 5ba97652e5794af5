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

// jobDim is the length of the job state vector s_j: the demand per resource
// plus the normalized duration.
const jobDim = cluster.NumResources + 1

// JobDim is the dimensionality of the job state vector.
func (e *Encoder) JobDim() int { return jobDim }

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

// State is one full DRL state observation in one contiguous block: the K
// group vectors in server order (server srv's features at
// [srv*NumResources, (srv+1)*NumResources)), then the job features. A stored
// observation is therefore one allocation and one copy.
type State struct {
	v        mat.Vec
	groupDim int
}

// NewState returns a zeroed state shaped for this encoder.
func (e *Encoder) NewState() State {
	return State{v: mat.NewVec(e.StateDim()), groupDim: e.GroupDim()}
}

// StateDim is the length of one state block, K*GroupDim + JobDim.
func (e *Encoder) StateDim() int { return e.m*cluster.NumResources + e.JobDim() }

// Group returns a view of group k's state vector g_k.
func (s State) Group(k int) mat.Vec { return s.v[k*s.groupDim : (k+1)*s.groupDim] }

// Groups returns a view of g_1..g_K back to back: a row-major K x GroupDim
// matrix.
func (s State) Groups() mat.Vec { return s.v[:len(s.v)-jobDim] }

// Job returns a view of the job state vector s_j.
func (s State) Job() mat.Vec { return s.v[len(s.v)-jobDim:] }

// Encode captures the full state at a job arrival.
func (e *Encoder) Encode(v *cluster.View, j *cluster.Job) State {
	s := e.NewState()
	e.EncodeInto(v, j, s)
	return s
}

// EncodeInto captures the full state at a job arrival into dst (a state from
// NewState), writing the values Encode would without allocating.
func (e *Encoder) EncodeInto(v *cluster.View, j *cluster.Job, dst State) {
	if v.M != e.m {
		panic(fmt.Sprintf("global: snapshot M=%d encoder M=%d", v.M, e.m))
	}
	e.EncodeServersInto(v, dst, 0, e.m)
	e.EncodeJobInto(j, dst)
}

// EncodeServersInto refreshes the group-state features of servers [lo, hi)
// in dst. Every server owns a disjoint NumResources-wide strip of the block,
// so a state gathered range by range is bitwise identical to one encoded in
// a single pass.
//
// Each server's per-resource feature is its *committed* utilization — running
// plus queued demand, clamped at 2.0 — so the agent can distinguish a busy
// server from a backlogged one. (The paper's state is "current resource
// utilization level of each server"; with FCFS head-of-line blocking the
// queued demand is part of that level for any placement-relevant purpose,
// and without it queue-aware allocation is unlearnable.)
func (e *Encoder) EncodeServersInto(v *cluster.View, dst State, lo, hi int) {
	const maxCommitted = 2.0
	for srv := lo; srv < hi; srv++ {
		for p := 0; p < cluster.NumResources; p++ {
			committed := v.Util[srv][p] + v.Pending[srv][p]
			if committed > maxCommitted {
				committed = maxCommitted
			}
			dst.v[srv*cluster.NumResources+p] = committed
		}
	}
}

// EncodeJobInto refreshes the job part s_j of dst.
func (e *Encoder) EncodeJobInto(j *cluster.Job, dst State) {
	job := dst.Job()
	for p := 0; p < cluster.NumResources; p++ {
		job[p] = j.Req[p]
	}
	d := j.Duration / e.durNorm
	if d > 1 {
		d = 1
	}
	job[cluster.NumResources] = d
}

// CloneInto deep-copies s into dst, allocating dst's block only when it is
// not already s's length (a never-used replay slot); stored transitions must
// not alias live buffers.
func (s State) CloneInto(dst *State) {
	if len(dst.v) != len(s.v) {
		dst.v = mat.NewVec(len(s.v))
	}
	dst.groupDim = s.groupDim
	copy(dst.v, s.v)
}
