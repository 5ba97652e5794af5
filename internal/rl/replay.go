package rl

import (
	"fmt"

	"hierdrl/internal/mat"
)

// Replay is a bounded experience-replay ring buffer ("experience memory D
// with capacity ND" in Algorithm 1). When full, the oldest transitions are
// overwritten. Sampling is uniform with replacement, which — per the DQN
// line of work the paper builds on — decorrelates minibatches and smooths
// learning.
type Replay[T any] struct {
	buf  []T
	cap  int
	next int
	full bool
}

// NewReplay returns a replay memory with the given capacity.
func NewReplay[T any](capacity int) *Replay[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: NewReplay invalid capacity %d", capacity))
	}
	return &Replay[T]{buf: make([]T, capacity), cap: capacity}
}

// NextSlot returns a pointer to the slot the next transition occupies, so the
// caller can build the transition in place — reusing the evicted
// transition's buffers instead of allocating fresh ones. The write is not
// visible to sampling until CommitSlot runs.
func (r *Replay[T]) NextSlot() *T { return &r.buf[r.next] }

// CommitSlot finalizes a slot populated via NextSlot: the cursor advances,
// and at capacity it wraps so the oldest transition is evicted next.
func (r *Replay[T]) CommitSlot() {
	r.next++
	if r.next == r.cap {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of stored transitions.
func (r *Replay[T]) Len() int {
	if r.full {
		return r.cap
	}
	return r.next
}

// Cap returns the capacity ND.
func (r *Replay[T]) Cap() int { return r.cap }

// SampleIndicesInto appends n slot indices drawn uniformly with replacement
// to dst (pass dst[:0] to reuse a retained scratch slice; steady-state calls
// are allocation-free). Use At to dereference. It panics when the memory is
// empty.
func (r *Replay[T]) SampleIndicesInto(dst []int, n int, rng *mat.RNG) []int {
	ln := r.Len()
	if ln == 0 {
		panic("rl: SampleIndicesInto from empty replay memory")
	}
	for i := 0; i < n; i++ {
		dst = append(dst, rng.Intn(ln))
	}
	return dst
}

// At returns the transition stored in slot i (0 <= i < Len).
func (r *Replay[T]) At(i int) T { return r.buf[i] }

// Newest returns the slot of the most recently added transition, the one
// slot whose ring successor is not the transition stored after it. It panics
// when empty.
func (r *Replay[T]) Newest() int {
	if r.Len() == 0 {
		panic("rl: Newest on empty replay memory")
	}
	if r.next == 0 {
		return r.cap - 1
	}
	return r.next - 1
}

// Latest returns the most recently added transition. It panics when empty.
func (r *Replay[T]) Latest() T { return r.buf[r.Newest()] }
