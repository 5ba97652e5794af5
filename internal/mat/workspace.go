package mat

// Workspace is a bump-allocator arena for scratch vectors and matrices.
// Call Reset at the start of a computation and TakeUninit/TakeMatUninit for
// each scratch buffer; after the arena has grown to the high-water mark of
// the workload, every subsequent computation is allocation-free. A
// Workspace is not safe for concurrent use — give each goroutine (each
// agent, each network) its own.
type Workspace struct {
	buf  []float64
	off  int
	mats []Dense
	moff int
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset recycles the arena. Buffers handed out before the call must no
// longer be used; their contents will be overwritten by subsequent takes.
func (w *Workspace) Reset() {
	w.off = 0
	w.moff = 0
}

// Cap returns how many floats the arena holds; it changes only when a take
// outgrows it.
func (w *Workspace) Cap() int { return len(w.buf) }

// TakeUninit returns a scratch vector of length n valid until the next
// Reset. It is not zeroed: it is for buffers every element of which the
// caller overwrites before reading (e.g. GEMV/GEMM destinations).
func (w *Workspace) TakeUninit(n int) Vec {
	if w.off+n > len(w.buf) {
		grown := 2*len(w.buf) + n
		// Old buffers stay valid: they keep aliasing the previous backing
		// array, which outlives the swap for as long as callers hold them.
		w.buf = make([]float64, grown)
		w.off = 0
	}
	v := Vec(w.buf[w.off : w.off+n])
	w.off += n
	return v
}

// TakeMatUninit returns a scratch rows×cols matrix valid until the next
// Reset, not zeroed. The matrix header itself comes from the arena, so
// steady-state use performs no heap allocation.
func (w *Workspace) TakeMatUninit(rows, cols int) *Dense {
	m := w.takeMatHeader(rows, cols)
	m.Data = w.TakeUninit(rows * cols)
	return m
}

func (w *Workspace) takeMatHeader(rows, cols int) *Dense {
	if w.moff == len(w.mats) {
		w.mats = append(w.mats, Dense{})
	}
	m := &w.mats[w.moff]
	w.moff++
	m.Rows, m.Cols = rows, cols
	return m
}
