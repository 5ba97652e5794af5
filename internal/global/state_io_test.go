package global

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

// replayRig drives a small agent one decision epoch at a time. Every epoch
// sees a different view and job, so no two stored observations are equal and
// a successor taken from the wrong slot cannot pass for the right one.
type replayRig struct {
	a   *Agent
	cfg Config
	v   *cluster.View
	rng *mat.RNG
	now float64
}

func newReplayRig(t *testing.T, replayCap int) *replayRig {
	t.Helper()
	const m = 6
	cfg := DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	cfg.ReplayCap = replayCap
	cfg.MiniBatch = 4
	cfg.TrainEvery = 4
	a, err := NewAgent(cfg, m, mat.NewRNG(5))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	a.ObserveCluster(0, 200, 2, 0.5)
	return &replayRig{a: a, cfg: cfg, v: testView(m, nil), rng: mat.NewRNG(11)}
}

// decide runs one decision epoch and returns the observation it was made on
// (encoded here, independently of the agent's scratch) and the action taken.
func (r *replayRig) decide() (mat.Vec, int) {
	r.now += 5
	r.v.Now = sim.Time(r.now)
	for i := range r.v.Util {
		cpu := r.rng.Float64()
		r.v.Util[i] = cluster.Resources{cpu, cpu / 2, cpu / 4}
	}
	j := testJob(0.05+0.2*r.rng.Float64(), 100+1000*r.rng.Float64())
	r.a.ObserveCluster(r.v.Now, 150+100*r.rng.Float64(), 3, 0.4)
	return r.a.enc.Encode(r.v, j).v, r.a.Allocate(j, r.v)
}

// roundTrip replaces the agent by one restored from its own checkpoint.
func (r *replayRig) roundTrip(t *testing.T) {
	t.Helper()
	var e checkpoint.Codec
	r.a.State(&e)
	b, err := NewAgent(r.cfg, r.a.enc.M(), mat.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	d := checkpoint.NewDec("agent", e.Payload())
	b.State(d)
	if err := d.End(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	r.a = b
}

// storedNext is one slot of the replay layout this repo had through format
// v3: every transition owns a copy of its successor observation.
type storedNext struct {
	S, Next  mat.Vec
	Action   int
	Terminal bool
}

// nextModel is the reference experience memory: the same ring discipline with
// an explicit Next per slot.
type nextModel struct {
	ring          []storedNext
	next          int
	full          bool
	hasPending    bool
	pendingS      mat.Vec
	pendingAction int
}

func (m *nextModel) add(tr storedNext) {
	m.ring[m.next] = tr
	if m.next++; m.next == len(m.ring) {
		m.next, m.full = 0, true
	}
}

func (m *nextModel) len() int {
	if m.full {
		return len(m.ring)
	}
	return m.next
}

func (m *nextModel) decide(s mat.Vec, action int) {
	if m.hasPending {
		m.add(storedNext{S: m.pendingS, Next: s, Action: m.pendingAction})
	}
	m.pendingS, m.pendingAction, m.hasPending = s, action, true
}

func (m *nextModel) finish() {
	if m.hasPending {
		m.add(storedNext{S: m.pendingS, Action: m.pendingAction, Terminal: true})
	}
	m.hasPending = false
}

func sameBits(a, b mat.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// check compares every live slot of the agent's ring with the model's, the
// derived successor against the stored Next, and the transitions a minibatch
// draw names on either side.
func (m *nextModel) check(t *testing.T, a *Agent, step int) {
	t.Helper()
	if a.replay.Len() != m.len() {
		t.Fatalf("step %d: %d stored transitions, model has %d", step, a.replay.Len(), m.len())
	}
	same := func(i, j int) bool {
		got, want := a.replay.At(i), m.ring[j]
		return sameBits(a.slotState(i).v, want.S) && got.Action == want.Action && got.Terminal == want.Terminal &&
			(want.Terminal || sameBits(a.successor(i).v, want.Next))
	}
	for i := 0; i < m.len(); i++ {
		if !same(i, i) {
			t.Fatalf("step %d: slot %d (cursor %d) differs from the stored-Next model", step, i, m.next)
		}
	}
	if m.len() == 0 {
		return
	}
	ref := mat.NewRNG(int64(step))
	for k, i := range a.replay.SampleIndicesInto(nil, 8, mat.NewRNG(int64(step))) {
		if !same(i, ref.Intn(m.len())) {
			t.Fatalf("step %d: draw %d names slot %d, a different transition from the model's", step, k, i)
		}
	}
}

// TestSuccessorMatchesStoredNext drives the agent beside the stored-Next
// model through a behaviour-policy warmup episode, FinishEpisode, a measured
// episode that wraps the ring more than twice (checkpointed and restored
// before and after the first wrap) and a second FinishEpisode.
func TestSuccessorMatchesStoredNext(t *testing.T) {
	const replayCap = 16
	r := newReplayRig(t, replayCap)
	m := &nextModel{ring: make([]storedNext, replayCap)}
	step := 0
	decide := func() {
		step++
		m.decide(r.decide())
		m.check(t, r.a, step)
	}
	finish := func() {
		step++
		r.a.FinishEpisode(sim.Time(r.now + 1))
		m.finish()
		m.check(t, r.a, step)
	}

	r.a.SetBehavior(func(*cluster.Job, *cluster.View) int { return 1 })
	for i := 0; i < 10; i++ {
		decide()
	}
	finish()
	r.a.SetBehavior(nil)
	for i := 0; i < 3*replayCap; i++ {
		decide()
		if i == 3 || i == replayCap {
			r.roundTrip(t)
			m.check(t, r.a, step)
		}
	}
	if !m.full || r.a.updates == 0 {
		t.Fatalf("ring full=%v, %d updates: the run exercised nothing", m.full, r.a.updates)
	}
	finish()
}

// TestAgentStateRejectsUnreplayableReplay alters one field at a time in a
// valid agent payload: each result is CRC-clean to the container but names a
// replay memory the next trainStep would panic on (or sample never-written
// slots from), or a reservoir fill no run reaches, so the walk must end in
// ErrCorrupt.
func TestAgentStateRejectsUnreplayableReplay(t *testing.T) {
	r := newReplayRig(t, 8)
	for i := 0; i < 5; i++ {
		r.decide()
	}
	a := r.a // 4 stored transitions, cursor 4, a pending decision open
	var e checkpoint.Codec
	a.State(&e)
	good := e.Payload()

	// Field offsets, from prefixes of the walk itself.
	c := &checkpoint.Codec{}
	a.net.state(c)
	a.tgt.state(c)
	a.opt.State(c)
	a.eps.State(c)
	c.RNG(a.eps.RNG())
	c.RNG(a.rng)
	replay := len(c.Payload()) // capacity, cursor, full, count, then the slots
	a.replayState(c)
	a.integ.State(c)
	c.F64(&a.lastPower)
	c.Int(&a.lastJobs)
	c.F64(&a.lastReli)
	pending := len(c.Payload()) // hasPending, pending state, pending action
	const cursor, full, slot0, tail = 8, 16, 25, 25
	dim := a.enc.StateDim()                // one delta window: the rig's M=6 gives 22 words
	block := 8 + 8*dim                     // length prefix + values
	mask1 := replay + slot0 + block + tail // slot 1's delta mask
	put := func(b []byte, off int, v int64) { binary.LittleEndian.PutUint64(b[off:], uint64(v)) }

	cases := []struct {
		name  string
		alter func(b []byte) []byte
		msg   string
	}{
		{"intact", func(b []byte) []byte { return b }, ""},
		{"action-names-no-server", func(b []byte) []byte { put(b, replay+slot0+block, 1<<30); return b }, "replay action"},
		{"one-element-state", func(b []byte) []byte { put(b, replay+slot0, 1); return b }, "slice length 1"},
		{"delta-mask-past-width", func(b []byte) []byte { put(b, mask1, 1<<dim); return b }, "past width"},
		{"delta-words-overrun-section", func(b []byte) []byte {
			put(b, mask1, 1<<dim-1)
			return b[:mask1+8+8] // one of the dim words the mask names
		}, "truncated"},
		{"full-flag-over-partial-ring", func(b []byte) []byte { b[replay+full] = 1; return b }, "replay cursor"},
		{"cursor-ahead-of-count", func(b []byte) []byte { put(b, replay+cursor, 5); return b }, "replay cursor"},
		{"cursor-behind-count", func(b []byte) []byte { put(b, replay+cursor, 2); return b }, "replay cursor"},
		{"newest-bootstraps-without-pending", func(b []byte) []byte { b[pending] = 0; return b }, "pending state"},
		{"pending-action-names-no-server", func(b []byte) []byte { put(b, pending+1+block, -1); return b }, "pending action"},
		// The walk ends with the autoencoder reservoir's fill count.
		{"ae-fill-past-cap", func(b []byte) []byte { put(b, len(b)-8, int64(a.aeSampleCap+1)); return b }, "reservoir fill"},
		{"ae-fill-negative", func(b []byte) []byte { put(b, len(b)-8, -1); return b }, "reservoir fill"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.alter(append([]byte(nil), good...))
			into, err := NewAgent(r.cfg, a.enc.M(), mat.NewRNG(99))
			if err != nil {
				t.Fatal(err)
			}
			d := checkpoint.NewDec("agent", b)
			into.State(d)
			err = d.End()
			if tc.msg == "" {
				if err != nil {
					t.Fatalf("unaltered payload rejected: %v", err)
				}
				return
			}
			if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("got %v, want ErrCorrupt naming the %s", err, tc.msg)
			}
		})
	}
}

// TestReplaySectionBytesPerTransition pins the snapshot cost of the replay
// memory at the paper's shape (M=30, K=3; a 94-word state, two delta
// windows). Slot 0 is one 94-value block with its length prefix plus action,
// reward rate, sojourn and terminal flag, 785 bytes. Every later slot is two
// 8-byte delta masks plus that 25-byte tail, 41 bytes, and 8 more per word
// that differs from the slot before it. The ring header is cursor state only
// (no per-slot array).
func TestReplaySectionBytesPerTransition(t *testing.T) {
	a, err := NewAgent(DefaultConfig(30), 30, mat.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Words changed against the previous slot: none, one per window, a whole
	// window, all of them.
	changed := []int{0, 0, 1, 5, 63, 64, 65, 94, 0, 2}
	want := 8 + 8 + 1 + 8 // capacity, cursor, full, count
	for i, n := range changed {
		for w := 0; w < n; w++ {
			a.pendingState.v[w] = float64(i + 1)
		}
		a.storeTransition(-1, 5, false)
		if i == 0 {
			want += 785
		} else {
			want += 16 + 25 + 8*n
		}
	}
	var e checkpoint.Codec
	a.replayState(&e)
	if got := len(e.Payload()); got != want {
		t.Fatalf("replay walk is %d bytes for %d transitions, want %d", got, len(changed), want)
	}
}
