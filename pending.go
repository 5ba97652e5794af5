package hierdrl

import (
	"slices"
	"sort"

	"hierdrl/internal/trace"
)

// pendingQueue holds the session's undispatched arrivals in (arrival,
// submission order) order: among equal arrivals the earlier-enqueued job
// leaves first. The live region is buf[lo:]; the consumed prefix buf[:lo] is
// slack that pop reclaims by compaction and a near-head insert reuses, so a
// steady stream recycles one backing array and a retry re-arriving next to
// the head of a long queue moves only the few jobs ahead of it.
type pendingQueue struct {
	buf []trace.Job
	lo  int
}

// pending returns the number of queued jobs.
func (q *pendingQueue) pending() int { return len(q.buf) - q.lo }

// head returns the next job to dispatch; the queue must be non-empty.
func (q *pendingQueue) head() *trace.Job { return &q.buf[q.lo] }

// jobs returns the queued jobs in dispatch order. The slice aliases the queue
// and is valid until the next mutation.
func (q *pendingQueue) jobs() []trace.Job { return q.buf[q.lo:] }

// reset empties the queue, keeping its backing array.
func (q *pendingQueue) reset() { q.buf, q.lo = q.buf[:0], 0 }

// reserve makes room for n further tail appends without reallocation.
func (q *pendingQueue) reserve(n int) {
	if n > 0 {
		q.buf = slices.Grow(q.buf, n)
	}
}

// enqueue inserts tj before the first queued job with a strictly later
// arrival. An arrival not earlier than the tail — every in-order stream — is
// a plain append. Anything else costs a binary search plus a shift of the
// shorter side: the jobs ahead of tj move one slot down into the consumed
// prefix when that is the cheaper move, otherwise the jobs behind it move one
// slot up, so the worst case (a mid-queue arrival) moves pending()/2 jobs.
func (q *pendingQueue) enqueue(tj trace.Job) {
	n := len(q.buf)
	if n == q.lo || tj.Arrival >= q.buf[n-1].Arrival {
		q.buf = append(q.buf, tj)
		return
	}
	live := q.buf[q.lo:]
	at := q.lo + sort.Search(len(live), func(i int) bool { return live[i].Arrival > tj.Arrival })
	if q.lo > 0 && at-q.lo < n-at {
		copy(q.buf[q.lo-1:], q.buf[q.lo:at])
		q.lo--
		q.buf[at-1] = tj
		return
	}
	q.buf = append(q.buf, trace.Job{})
	copy(q.buf[at+1:], q.buf[at:n])
	q.buf[at] = tj
}

// enqueueAll inserts copies of jobs numbered firstID, firstID+1, ... — the
// same queue as enqueueing them one by one, but an out-of-order batch is
// merged by one stable sort of the live region instead of a positional insert
// per job.
func (q *pendingQueue) enqueueAll(jobs []trace.Job, firstID int) {
	unsorted := false
	for i, tj := range jobs {
		tj.ID = firstID + i
		if n := len(q.buf); n > q.lo && tj.Arrival < q.buf[n-1].Arrival {
			unsorted = true
		}
		q.buf = append(q.buf, tj)
	}
	if unsorted {
		live := q.buf[q.lo:]
		sort.SliceStable(live, func(a, b int) bool { return live[a].Arrival < live[b].Arrival })
	}
}

// pop removes and returns the head; the queue must be non-empty. The backing
// array is recycled when the queue drains and compacted once the consumed
// prefix exceeds both 1,024 slots and the live region. Compaction leaves no
// head slack: the near-head inserts of a crash that lands before the next pop
// take the tail-side shift, which on a 140k-job batch fault run was 0-5
// inserts and under 1% of the pass (DESIGN.md §13).
func (q *pendingQueue) pop() trace.Job {
	tj := q.buf[q.lo]
	q.lo++
	if q.lo == len(q.buf) {
		q.reset()
	} else if q.lo > 1024 && q.lo*2 > len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.lo:])]
		q.lo = 0
	}
	return tj
}
