package cluster

import (
	"fmt"
	"math"
)

// LoadIndex is a tournament (min-segment) tree over the servers' committed
// loads, keeping the least-committed server queryable in O(1) with O(log n)
// updates on server events. It exists because a latency-greedy allocator at
// 10k-server scale cannot afford the historical O(M) snapshot scan per
// arrival.
//
// Tie-breaking prefers the lower index (left child on equality), which is
// exactly the order the sequential scan's strict `<` comparison produces —
// so, without a drain model, the indexed argmin is bitwise-faithful to
// policy.LeastLoaded.
//
// Fault injection composes with the tree for free: a down or draining
// server reports CommittedLoad = +Inf (see Server.CommittedLoad), the same
// value the [n, size) padding leaves carry, so it loses every tournament
// without any index-side special case — graceful degradation falls out of
// the existing comparison rule. The View carries no draining flag, so under
// a drain model the scan can pick a draining server the index skips, and
// the two picks differ.
type LoadIndex struct {
	n     int
	size  int       // leaf capacity: smallest power of two >= n
	win   []int32   // win[k] = winning leaf index of internal node k (1-based heap layout)
	loads []float64 // leaf values, +Inf for the [n, size) padding
}

func newLoadIndex(n int) *LoadIndex {
	size := 1
	for size < n {
		size *= 2
	}
	x := &LoadIndex{
		n:     n,
		size:  size,
		win:   make([]int32, size), // nodes 1..size-1 used; 0 unused
		loads: make([]float64, size),
	}
	for i := n; i < size; i++ {
		x.loads[i] = math.Inf(1)
	}
	x.rebuild()
	return x
}

// rebuild recomputes every internal node bottom-up.
func (x *LoadIndex) rebuild() {
	if x.size == 1 {
		return
	}
	for k := x.size - 1; k >= 1; k-- {
		x.win[k] = x.winner(k)
	}
}

// winner computes internal node k's winning leaf from its two children.
func (x *LoadIndex) winner(k int) int32 {
	l, r := 2*k, 2*k+1
	var li, ri int32
	if l >= x.size {
		li, ri = int32(l-x.size), int32(r-x.size)
	} else {
		li, ri = x.win[l], x.win[r]
	}
	if x.loads[li] <= x.loads[ri] {
		return li
	}
	return ri
}

// Update sets leaf i's load and repairs the path to the root. A no-op
// when the load is unchanged (most power-only server events).
func (x *LoadIndex) Update(i int, load float64) {
	if x.loads[i] == load {
		return
	}
	x.loads[i] = load
	for k := (i + x.size) / 2; k >= 1; k /= 2 {
		w := x.winner(k)
		if w == x.win[k] && w != int32(i) {
			// The node's winner is another leaf whose value is untouched, so
			// this node's (winner, value) pair — and every ancestor's — is
			// unchanged.
			return
		}
		x.win[k] = w
	}
}

// ArgMin returns the index and load of the least-committed server (lowest
// index on ties).
func (x *LoadIndex) ArgMin() (i int, load float64) {
	if x.size == 1 {
		return 0, x.loads[0]
	}
	w := x.win[1]
	return int(w), x.loads[w]
}

// invariantCheck validates the tree against a fresh scan of live server
// state.
func (x *LoadIndex) invariantCheck(c *Cluster) {
	for i := 0; i < x.n; i++ {
		if got, want := x.loads[i], c.servers[i].CommittedLoad(); got != want {
			panic(fmt.Sprintf("cluster: load index leaf %d drift: cached %v live %v", i, got, want))
		}
	}
	best, bestLoad := 0, x.loads[0]
	for i := 1; i < x.n; i++ {
		if x.loads[i] < bestLoad {
			best, bestLoad = i, x.loads[i]
		}
	}
	if got, _ := x.ArgMin(); got != best {
		panic(fmt.Sprintf("cluster: load index argmin drift: tree %d scan %d", got, best))
	}
}

// EnableLoadIndex builds the least-committed tournament tree and keeps it
// maintained on every server event. Call once, before any event fires
// (typically right after construction).
func (c *Cluster) EnableLoadIndex() {
	if c.idx != nil {
		return
	}
	c.idx = newLoadIndex(len(c.servers))
	c.rebuildLoadIndex()
}

// rebuildLoadIndex reloads every leaf from live server state.
func (c *Cluster) rebuildLoadIndex() {
	for i, s := range c.servers {
		c.idx.loads[i] = s.CommittedLoad()
	}
	c.idx.rebuild()
}

// LeastCommitted returns the server with the smallest committed load
// (running plus queued demand, binding dimension), preferring lower indices
// on exact ties. Without a drain model it is the same argmin, bit for bit,
// as policy.LeastLoaded's sequential snapshot scan, including its >=2.0
// sentinel fallback to server 0; under one it skips draining servers, which
// the scan cannot see.
func (c *Cluster) LeastCommitted() int {
	best, load := c.idx.ArgMin()
	if load >= 2.0 {
		// policy.LeastLoaded initializes its best at 2.0 and only moves on a
		// strict improvement, so an all-overcommitted cluster yields 0.
		return 0
	}
	return best
}
