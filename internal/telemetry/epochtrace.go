package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// Decision-epoch tracing: a fixed-size ring of per-decision timing spans,
// recorded by the engine with zero steady-state allocation and dumpable as
// Chrome trace-event JSON (chrome://tracing, Perfetto). Each decision epoch
// contributes four consecutive segments: the lane's event execution since
// the previous decision ended, the allocation-view refresh, the allocation
// (the batched Q-network GEMM on DRL configurations) and the commit of the
// dispatch (the server's Submit cascade).

// EpochSpan times one decision epoch. StartNs is monotonic nanoseconds since
// the ring's base (see EpochRing.NowNs); the segments follow each other in
// field order from there.
type EpochSpan struct {
	Epoch int64   // monotone decision counter (1-based)
	AtSec float64 // the decision's simulated instant

	StartNs   int64 // the previous decision ended (ring creation for the first)
	RunNs     int64 // lane events fired between the two decisions
	RefreshNs int64 // allocation-view snapshot
	AllocNs   int64 // allocation, incl. the batched GEMM on DRL configurations
	CommitNs  int64 // dispatch commit (Submit cascade)
}

// EpochRing records the last cap decision epochs. It is driven from the
// engine's goroutine only and needs no locks.
type EpochRing struct {
	spans []EpochSpan
	n     int64 // epochs recorded in total
	mark  int64 // NowNs at the end of the last segment recorded
	base  time.Time
}

// NewEpochRing returns a ring holding the last capacity epochs (capacity < 1
// defaults to 2048).
func NewEpochRing(capacity int) *EpochRing {
	if capacity < 1 {
		capacity = 2048
	}
	return &EpochRing{spans: make([]EpochSpan, capacity), base: time.Now()}
}

// NowNs returns monotonic nanoseconds since the ring was created.
// Allocation-free (time.Since reads the monotonic clock).
func (r *EpochRing) NowNs() int64 { return int64(time.Since(r.base)) }

// Begin opens the next epoch slot in place (no allocation), closing its run
// segment at the current instant, and returns it for the Lap calls that
// time the remaining segments.
func (r *EpochRing) Begin(atSec float64) *EpochSpan {
	sp := &r.spans[r.n%int64(len(r.spans))]
	r.n++
	*sp = EpochSpan{Epoch: r.n, AtSec: atSec, StartNs: r.mark}
	r.Lap(&sp.RunNs)
	return sp
}

// Lap stores the time since the previous segment ended into *seg and starts
// the next segment now.
func (r *EpochRing) Lap(seg *int64) {
	now := r.NowNs()
	*seg = now - r.mark
	r.mark = now
}

// Len returns how many spans the ring currently holds.
func (r *EpochRing) Len() int {
	if r.n < int64(len(r.spans)) {
		return int(r.n)
	}
	return len(r.spans)
}

// Recorded returns the total number of epochs recorded (including those
// that have been overwritten).
func (r *EpochRing) Recorded() int64 { return r.n }

// Spans appends the retained spans in chronological order to dst and
// returns it.
func (r *EpochRing) Spans(dst []EpochSpan) []EpochSpan {
	k := int64(len(r.spans))
	if r.n <= k {
		return append(dst, r.spans[:r.n]...)
	}
	head := r.n % k
	dst = append(dst, r.spans[head:]...)
	return append(dst, r.spans[:head]...)
}

// WriteChromeTrace dumps the ring as Chrome trace-event JSON: one "X"
// (complete) event per non-empty segment, all on the engine's thread
// (tid 0), ts/dur in microseconds. Load the file in chrome://tracing or
// ui.perfetto.dev.
func (r *EpochRing) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	fmt.Fprint(bw, `{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"engine"}}`)
	emit := func(name string, startNs, durNs, epoch int64, atSec float64) {
		if durNs <= 0 {
			return
		}
		fmt.Fprintf(bw, `,{"name":%q,"ph":"X","pid":1,"tid":0,"ts":%.3f,"dur":%.3f,"args":{"epoch":%d,"t_sim_s":%g}}`,
			name, float64(startNs)/1e3, float64(durNs)/1e3, epoch, atSec)
	}
	for _, es := range r.Spans(nil) {
		at := es.StartNs
		for _, seg := range [...]struct {
			name string
			ns   int64
		}{{"run", es.RunNs}, {"refresh+encode", es.RefreshNs}, {"alloc+gemm", es.AllocNs}, {"commit", es.CommitNs}} {
			emit(seg.name, at, seg.ns, es.Epoch, es.AtSec)
			at += seg.ns
		}
	}
	fmt.Fprint(bw, "]}\n")
	return bw.Flush()
}
