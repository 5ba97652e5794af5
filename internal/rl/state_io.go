package rl

import (
	"sort"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/mat"
)

// State walks the exploration schedule. The RNG is owned and serialized by
// the policy's holder (it may be shared), so only the decayed epsilon
// trajectory lives here; min and decay are construction config but min can
// be lowered by SetEpsilon, so both mutable fields go in.
func (p *EpsilonGreedy) State(c *checkpoint.Codec) {
	c.F64(&p.eps)
	c.F64(&p.min)
}

// RNG exposes the policy's random source for checkpointing by its holder.
func (p *EpsilonGreedy) RNG() *mat.RNG { return p.rng }

// State walks the in-flight sojourn of the integrator. Beta is construction
// config.
func (ri *RewardIntegrator) State(c *checkpoint.Codec) {
	c.Bool(&ri.started)
	c.F64(&ri.t0)
	c.F64(&ri.last)
	c.F64(&ri.rate)
	c.F64(&ri.integral)
}

// ReplayState walks the ring buffer's cursor state and every slot through
// the element walk elem (slots beyond Len have never been written and are
// skipped). Decoding requires r to have been constructed with the saved
// capacity, and the element count to be the Len the cursor implies.
func ReplayState[T any](r *Replay[T], c *checkpoint.Codec, elem func(*checkpoint.Codec, *T)) {
	capSaved, next, full := r.cap, r.next, r.full
	c.Int(&capSaved)
	c.Int(&next)
	c.Bool(&full)
	n := c.Count(r.Len(), 0)
	if c.Decoding() {
		if c.Err() != nil {
			return
		}
		if capSaved != r.cap {
			c.Fail(checkpoint.ErrConfigMismatch, "replay capacity %d, want %d", capSaved, r.cap)
			return
		}
		stored := next
		if full {
			stored = r.cap
		}
		if next < 0 || next >= r.cap || n != stored {
			c.Fail(checkpoint.ErrCorrupt, "replay cursor %d (full=%v) with %d transitions, capacity %d", next, full, n, r.cap)
			return
		}
		r.next = next
		r.full = full
		clear(r.buf)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		elem(c, &r.buf[i])
	}
}

// State walks the learned Q-values and visit counts with sorted state keys,
// so identical tables always produce identical bytes. Decoding replaces the
// table contents.
func (t *QTable) State(c *checkpoint.Codec) {
	keys := make([]string, 0, len(t.q))
	for k := range t.q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One row is at least its three length prefixes.
	n := c.Count(len(keys), 24)
	if c.Decoding() {
		keys = make([]string, n)
		t.q = make(map[string][]float64, n)
		t.visits = make(map[string][]int, n)
	}
	for _, k := range keys {
		q, v := t.q[k], t.visits[k]
		c.Str(&k)
		c.F64s(&q)
		c.Ints(&v)
		if c.Decoding() {
			if c.Err() != nil {
				return
			}
			if len(q) != t.nActions || len(v) != t.nActions {
				c.Fail(checkpoint.ErrCorrupt, "QTable row width %d/%d, want %d", len(q), len(v), t.nActions)
				return
			}
			t.q[k] = q
			t.visits[k] = v
		}
	}
}
