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

// Add appends a transition, evicting the oldest when at capacity.
func (r *Replay[T]) Add(t T) {
	r.buf[r.next] = t
	r.CommitSlot()
}

// NextSlot returns a pointer to the slot the next Add would occupy, so the
// caller can build the transition in place — reusing the evicted
// transition's buffers instead of allocating fresh ones. The write is not
// visible to sampling until CommitSlot runs; NextSlot/CommitSlot pairs must
// not interleave with Add.
func (r *Replay[T]) NextSlot() *T { return &r.buf[r.next] }

// CommitSlot finalizes a slot populated via NextSlot, with the same
// bookkeeping as Add (cursor advance, wrap-around).
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

// Sample fills dst with n transitions drawn uniformly with replacement.
// It panics when the memory is empty.
func (r *Replay[T]) Sample(n int, rng *mat.RNG) []T {
	ln := r.Len()
	if ln == 0 {
		panic("rl: Sample from empty replay memory")
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.buf[rng.Intn(ln)]
	}
	return out
}

// SampleIndices draws n slot indices uniformly with replacement, consuming
// the RNG exactly as Sample does (so the two are interchangeable for
// deterministic replays). Use At to dereference.
func (r *Replay[T]) SampleIndices(n int, rng *mat.RNG) []int {
	return r.SampleIndicesInto(make([]int, 0, n), n, rng)
}

// SampleIndicesInto is SampleIndices appending into dst (pass dst[:0] to
// reuse a retained scratch slice; steady-state calls are allocation-free).
// RNG consumption is identical to SampleIndices.
func (r *Replay[T]) SampleIndicesInto(dst []int, n int, rng *mat.RNG) []int {
	ln := r.Len()
	if ln == 0 {
		panic("rl: Sample from empty replay memory")
	}
	for i := 0; i < n; i++ {
		dst = append(dst, rng.Intn(ln))
	}
	return dst
}

// At returns the transition stored in slot i (0 <= i < Len).
func (r *Replay[T]) At(i int) T { return r.buf[i] }

// Each calls fn for every stored transition in insertion order (oldest
// first).
func (r *Replay[T]) Each(fn func(T)) {
	if r.full {
		for i := r.next; i < r.cap; i++ {
			fn(r.buf[i])
		}
	}
	for i := 0; i < r.next; i++ {
		fn(r.buf[i])
	}
}

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
