package hierdrl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// bubbleModel is the reference the pending queue is checked against: the
// append-and-bubble insertion sort the session used before pendingQueue. It
// defines the (arrival, submission order) total order — a new job stops
// behind every queued job that arrives no later.
type bubbleModel []Job

func (m *bubbleModel) enqueue(tj Job) {
	q := append(*m, tj)
	for i := len(q) - 1; i > 0 && q[i].Arrival < q[i-1].Arrival; i-- {
		q[i], q[i-1] = q[i-1], q[i]
	}
	*m = q
}

func (m *bubbleModel) pop() Job {
	tj := (*m)[0]
	*m = (*m)[1:]
	return tj
}

// dispatchLog wraps the session's allocator and records the job IDs in the
// order the engine pops them off the pending queue.
type dispatchLog struct {
	Allocator
	ids []int
}

func (d *dispatchLog) Allocate(j *ClusterJob, v *ClusterView) int {
	d.ids = append(d.ids, j.ID)
	return d.Allocator.Allocate(j, v)
}

// pendingOps drives one always-on round-robin session and the bubble model
// through the same operation stream and fails at the first pop whose job ID,
// or whose Pending() count, differs. Each operation is an opcode byte and one
// argument byte: Submit at the tail / next to the head / on an existing
// arrival (a tie) / in the past, SubmitTrace of a sorted or shuffled batch,
// a retry re-insertion (Session.enqueue under an already-dispatched ID, the
// call retryEvicted makes), Reserve, and a run of pops. Arrivals sit on a
// half-second grid so ties are common.
func pendingOps(t *testing.T, ops []byte) {
	t.Helper()
	s, err := NewSession(RoundRobin(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	log := &dispatchLog{Allocator: s.alloc}
	s.alloc = log

	var model bubbleModel
	now := func() float64 { return float64(s.Now()) }
	job := func(arrival float64) Job {
		return Job{Arrival: arrival, Duration: 1, Req: [3]float64{0.01, 0.01, 0.01}}
	}
	tail := func() float64 {
		if len(model) == 0 {
			return now()
		}
		return model[len(model)-1].Arrival
	}
	head := func() float64 {
		if len(model) == 0 {
			return now()
		}
		return model[0].Arrival
	}
	checked := 0 // dispatches already compared with the model
	check := func(op int) {
		for ; checked < len(log.ids); checked++ {
			if len(model) == 0 {
				t.Fatalf("op %d: dispatched job %d from a queue the model holds empty", op, log.ids[checked])
			}
			if want := model.pop().ID; log.ids[checked] != want {
				t.Fatalf("op %d: pop %d dispatched job %d, insertion-sort model says %d", op, checked, log.ids[checked], want)
			}
		}
		if s.Pending() != len(model) {
			t.Fatalf("op %d: Pending() = %d, model holds %d", op, s.Pending(), len(model))
		}
	}
	popN := func(op, n int) {
		for target := checked + n; checked < target && len(model) > 0; {
			if more, err := s.Step(); err != nil || !more {
				t.Fatalf("op %d: step with %d pending: more=%v err=%v", op, len(model), more, err)
			}
			check(op)
		}
	}
	submit := func(op int, arrival float64) {
		tj := job(arrival)
		tj.ID = int(s.ingested)
		if err := s.Submit(tj); err != nil {
			t.Fatalf("op %d: submit: %v", op, err)
		}
		model.enqueue(tj)
	}

	for op := 0; op+1 < len(ops); op += 2 {
		code, arg := ops[op]%10, float64(ops[op+1])
		switch code {
		case 0: // in order, at or behind the tail
			submit(op, tail()+arg/2)
		case 1: // next to the head of whatever is queued
			submit(op, head()+arg/2)
		case 2: // exactly on a queued job's arrival
			if len(model) > 0 {
				submit(op, model[int(arg)*len(model)/256].Arrival)
			}
		case 3: // already late
			submit(op, 0)
		case 4, 5: // a sorted batch of up to 4,080 jobs, or a shuffled one of up to 510
			tr := &Trace{}
			at, n := tail(), int(arg)*16
			if code == 5 {
				at, n = head(), int(arg)*2
			}
			for i := 0; i < n; i++ {
				at += float64(i%3) / 2
				tr.Jobs = append(tr.Jobs, job(at))
			}
			if code == 5 {
				rand.New(rand.NewSource(int64(op))).Shuffle(len(tr.Jobs), func(a, b int) {
					tr.Jobs[a], tr.Jobs[b] = tr.Jobs[b], tr.Jobs[a]
				})
			}
			first := int(s.ingested)
			if err := s.SubmitTrace(tr); err != nil {
				t.Fatalf("op %d: submit trace: %v", op, err)
			}
			for i, tj := range tr.Jobs {
				tj.ID = first + i
				model.enqueue(tj)
			}
		case 6, 7: // retry: a dispatched job re-arrives 0-127.5 s past the clock
			if checked > 0 {
				tj := job(now() + arg/2)
				tj.ID = log.ids[int(arg)*checked/256]
				s.enqueue(tj)
				model.enqueue(tj)
			}
		case 8:
			s.Reserve(int(arg) * 8)
		case 9: // up to 2,040 pops: enough to cross the compaction threshold
			popN(op, int(arg)*8)
		}
		check(op)
	}
	popN(len(ops), len(model))
	if len(model) != 0 || s.Pending() != 0 {
		t.Fatalf("after the final drain: Pending() = %d, model holds %d", s.Pending(), len(model))
	}
}

// pendingSeeds are hand-written operation streams: each crosses the 1,024-slot
// compaction threshold and then re-inserts next to the head, at ties and in
// mid-queue, on both sides of a compaction.
var pendingSeeds = [][]byte{
	// 4,080 in order, pop 1,000 (head slack, no compaction), head-side
	// retries and ties, pop past the threshold, retries again.
	{4, 255, 9, 125, 6, 0, 6, 60, 7, 200, 2, 1, 2, 128, 1, 3, 9, 255, 6, 0, 6, 255, 1, 0, 3, 0, 9, 255},
	// shuffled batch over a sorted one, reserve, late and tied submits.
	{4, 100, 5, 255, 8, 255, 3, 0, 2, 200, 9, 200, 7, 10, 5, 120, 9, 255, 9, 255},
	// retries into a queue compacted down to no head slack.
	{4, 160, 9, 162, 6, 1, 6, 1, 6, 2, 9, 1, 6, 0, 7, 0, 1, 9, 9, 255},
}

// TestPendingQueueMatchesInsertionSortModel checks pendingQueue's positional
// insert pop by pop against the insertion sort it replaced, on the seed
// streams and on random interleavings of every operation.
func TestPendingQueueMatchesInsertionSortModel(t *testing.T) {
	for i, ops := range pendingSeeds {
		ops := ops
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { pendingOps(t, ops) })
	}
	rounds := 24
	if testing.Short() {
		rounds = 6
	}
	for r := 0; r < rounds; r++ {
		rng := rand.New(rand.NewSource(int64(r)))
		ops := make([]byte, 2*(20+rng.Intn(60)))
		rng.Read(ops)
		pendingOps(t, ops)
	}
}

// FuzzPendingQueueOrder feeds arbitrary operation streams to the same
// differential check.
func FuzzPendingQueueOrder(f *testing.F) {
	for _, ops := range pendingSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64] // 32 operations: keeps one input in the milliseconds
		}
		pendingOps(t, ops)
	})
}

// faultsBatchRun is the shape of run the fault sweeps make: least-loaded on 8
// always-on servers, exponential crashes, backoff retries, the whole trace
// batch-submitted — so every retry re-arrives 30-600 s past the clock into a
// queue still holding the rest of the trace. shards goes to the deprecated
// WithShards, a no-op.
func faultsBatchRun(t *testing.T, shards int) *Session {
	t.Helper()
	cfg := RoundRobin(8)
	cfg.Name = "ckpt-head-insert"
	cfg.Alloc = AllocLeastLoaded
	cfg.Faults = FaultExpCrash
	cfg.MTTFSec = 20000
	cfg.MTTRSec = 600
	cfg.Retry = RetryBackoff
	s, err := NewSession(cfg, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.SubmitTrace(SyntheticTraceForCluster(600, 8, 1)); err != nil {
		t.Fatal(err)
	}
	return s
}

func drainedResult(t *testing.T, s *Session) *Result {
	t.Helper()
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return res
}

// stepToRetry advances past 300 completions and then to the end of the first
// Step that requeues a job, returning the head slack before that Step.
func stepToRetry(t *testing.T, s *Session) (loBefore int) {
	t.Helper()
	for {
		loBefore = s.pq.lo
		retried := s.retried
		if more, err := s.Step(); err != nil || !more {
			t.Fatalf("step: more=%v err=%v before any retry", more, err)
		}
		if s.Completed() >= 300 && s.retried > retried {
			return loBefore
		}
	}
}

// TestCheckpointAfterHeadSideInsert snapshots a fault run in the one queue
// state the positional insert added: consumed prefix non-empty and just
// shrunk by a retry that shifted the head side down. Only the live region is
// serialized, so Checkpoint -> Restore -> Checkpoint must be byte-identical
// and the resumed run must finish exactly like the uninterrupted one. The p2
// row builds its sessions through the deprecated WithShards(2) and must write
// the same bytes. testdata/faults_backoff_pr12.ckpt is the snapshot the
// commit before pendingQueue wrote at the same Step of the same run,
// re-recorded when format v5 stopped storing the cluster's derived
// aggregates, again, in the version word alone, for format v6, and again for
// format v7 (its want bits did not move), for format v8, whose PCG generator
// moved the run and its want bits, still v8 when the paper workload moved
// onto internal/workload's generator and its streams changed, in the
// version word alone, for format v9, in the version word and the metrics
// section, for format v10 and for format v11, and, in the version word alone,
// for formats v12 and v13 (its want bits did not move at any of the five):
// the code must write those bytes, restore them, and finish with the Summary
// they record.
func TestCheckpointAfterHeadSideInsert(t *testing.T) {
	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run(fmt.Sprintf("p%d", shards), func(t *testing.T) {
			ref := drainedResult(t, faultsBatchRun(t, shards))

			orig := faultsBatchRun(t, shards)
			// A Step pops at most once, so slack that did not grow across a
			// retrying Step was handed back by a head-side insert.
			if before := stepToRetry(t, orig); orig.pq.lo == 0 || orig.pq.lo > before {
				t.Fatalf("head slack %d -> %d across the retry: no head-side insert, checkpoint is vacuous", before, orig.pq.lo)
			}
			var snap, again bytes.Buffer
			if err := orig.Checkpoint(&snap); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			restored, err := Restore(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			defer restored.Close()
			if err := restored.Checkpoint(&again); err != nil {
				t.Fatalf("re-checkpoint: %v", err)
			}
			if !bytes.Equal(snap.Bytes(), again.Bytes()) {
				t.Fatalf("re-checkpoint of the restored session differs (%d vs %d bytes)", snap.Len(), again.Len())
			}
			if runtime.GOARCH == "amd64" { // recorded there; see goldenM6
				old, err := os.ReadFile("testdata/faults_backoff_pr12.ckpt")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap.Bytes(), old) {
					t.Errorf("snapshot differs from the one the previous queue layout wrote (%d vs %d bytes)", snap.Len(), len(old))
				}
				fromOld, err := Restore(bytes.NewReader(old))
				if err != nil {
					t.Fatalf("restore of the previous layout's snapshot: %v", err)
				}
				defer fromOld.Close()
				sm := drainedResult(t, fromOld).Summary
				got := [6]uint64{math.Float64bits(sm.EnergykWh), math.Float64bits(sm.AccLatencySec), math.Float64bits(sm.AvgPowerW),
					uint64(sm.Failures), uint64(sm.JobsInterrupted), uint64(sm.JobsRetried)}
				want := [6]uint64{0x40158fdf14964a6b, 0x412273a00f3beef9, 0x4086dd16a1a23307, 12, 34, 34}
				if got != want {
					t.Errorf("previous layout's snapshot finished with %#x, its own run with %#x", got, want)
				}
			}
			if got := drainedResult(t, restored); !reflect.DeepEqual(ref, got) {
				t.Fatalf("resumed run diverges from the uninterrupted one:\nref:     %+v\nresumed: %+v", ref.Summary, got.Summary)
			}
			if got := drainedResult(t, orig); !reflect.DeepEqual(ref, got) {
				t.Fatalf("checkpointing perturbed the run:\nref:  %+v\norig: %+v", ref.Summary, got.Summary)
			}
		})
	}
}
