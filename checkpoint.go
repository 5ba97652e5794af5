// Durable checkpoint/restore: Session.Checkpoint serializes the complete
// resumable state of a run at an event boundary into a versioned,
// CRC-guarded snapshot; Restore rebuilds a Session from one that continues
// bitwise-identically to the uninterrupted run (see DESIGN.md §14 for the
// format and the determinism contract). WithAutoCheckpoint layers a
// crash-safe periodic snapshot file on top (atomic write-rename, keep-last-K).
package hierdrl

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
	"hierdrl/internal/trace"
)

// Snapshot error sentinels, re-exported from internal/checkpoint so callers
// can classify Restore failures with errors.Is.
var (
	// ErrCorrupt marks a snapshot that is structurally broken: truncated,
	// bad magic, CRC mismatch, or internally inconsistent field values.
	ErrCorrupt = checkpoint.ErrCorrupt
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = checkpoint.ErrVersion
	// ErrConfigMismatch marks a snapshot whose embedded Config does not match
	// its header fingerprint (tampering), is one NewSession rejects, or
	// declares a configuration the snapshot's structure contradicts.
	ErrConfigMismatch = checkpoint.ErrConfigMismatch
)

// Snapshot section names, in file order. Sections decouple the container from
// the layout: a reader locates each by name, so reordering or adding sections
// is a version-compatible change.
const (
	secConfig  = "config"
	secEngine  = "engine"
	secCluster = "cluster"
	secSession = "session"
	secAgent   = "agent"
	secAlloc   = "alloc"
	secMetrics = "metrics"
)

// fnv64a hashes b with FNV-1a (64-bit) — the snapshot's config fingerprint.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// configJSON marshals the session's validated config with the warmup trace
// zeroed: the trace is consumed at construction (its effect lives on in the
// agent weights, which the snapshot captures), and at paper scale it would
// dwarf the rest of the snapshot.
func (s *Session) configJSON() ([]byte, error) {
	shadow := s.cfg
	shadow.WarmupTrace = nil
	return json.Marshal(shadow)
}

// Checkpoint serializes the session's complete resumable state to w. It must
// be called at an event boundary — any instant user code runs between Step /
// StepUntil / Drain calls qualifies.
//
// The snapshot captures the engine clock and pending timers, every queued
// job, the cluster's total-power accumulator, the DRL
// agent (weights, optimizer moments, replay buffer, RNG chains), the
// allocator and per-server power-management policies, the fault clocks and
// retry bookkeeping, and the metrics series — everything Restore needs to
// continue the run bitwise-identically. It does not capture the Observer,
// the context, or the auto-checkpoint configuration; those re-attach through
// Restore's options.
//
// Checkpointing a closed session returns ErrSessionClosed; checkpointing a
// session whose run already failed (context cancellation, guard trip) returns
// the latched error — a partial failed run is not a resumable state. A
// cancelled run that should stay resumable uses WithAutoCheckpoint, whose
// final generation is written before the cancellation latches.
func (s *Session) Checkpoint(w io.Writer) (err error) {
	if s.closed {
		return ErrSessionClosed
	}
	if s.err != nil {
		return fmt.Errorf("hierdrl: checkpoint of failed session: %w", s.err)
	}
	defer checkpoint.Catch(&err)

	cfgJSON, jerr := s.configJSON()
	if jerr != nil {
		return fmt.Errorf("hierdrl: checkpoint config: %w", jerr)
	}
	wr := checkpoint.NewWriter(fnv64a(cfgJSON))
	wr.Section(secConfig).Bytes(&cfgJSON)
	// The writer buffers its sections, so the walk may return to the engine
	// section after later ones; the file keeps the order of first opening.
	err = s.state(func(name string) (*checkpoint.Codec, error) { return wr.Section(name), nil })
	if err != nil {
		return err
	}
	_, err = wr.WriteTo(w)
	return err
}

// state walks every section after the config in the one order both
// directions need: the lane clock first (the cluster's timers validate
// against it), the cluster before the pump timer, then the layers above.
// open returns each section's Codec, encoding or decoding; each section ends
// with its End, which when decoding reports its failure or an unconsumed
// payload.
func (s *Session) state(open func(name string) (*checkpoint.Codec, error)) error {
	section := func(name string, walk func(*checkpoint.Codec)) error {
		c, err := open(name)
		if err != nil {
			return err
		}
		walk(c)
		return c.End()
	}
	eng, err := open(secEngine)
	if err != nil {
		return err
	}
	now := s.sm.Now()
	seq, prioSeq, nFired := s.sm.Counters()
	eng.F64((*float64)(&now))
	eng.I64(&seq)
	eng.I64(&prioSeq)
	eng.I64(&nFired)
	if eng.Decoding() {
		if err := eng.Err(); err != nil {
			return err
		}
		if math.IsNaN(float64(now)) || now < 0 || nFired < 0 {
			return fmt.Errorf("%w: lane clock %v, %d fired", ErrCorrupt, now, nFired)
		}
		// RestoreBegin wipes the construction-time event queue.
		s.sm.RestoreBegin(now, seq, prioSeq, nFired)
	}
	if err := section(secCluster, s.cl.State); err != nil {
		return err
	}
	// The pump timer, with its exact sequence number, so the restored lane
	// fires it in the same position bit for bit.
	cluster.TimerState(eng, &s.pump, s.sm, pumpFire, s)
	if err := eng.End(); err != nil {
		return err
	}
	if err := section(secSession, s.sessionState); err != nil {
		return err
	}
	if err := section(secAgent, optional(secAgent, s.agent != nil, s.agent.State)); err != nil {
		return err
	}
	// The DRL agent doubles as the allocator and is already captured above;
	// every other allocator walks as its own component.
	err = section(secAlloc, optional(secAlloc, s.cfg.Alloc != AllocDRL, func(c *checkpoint.Codec) { c.Component(s.alloc) }))
	if err != nil {
		return err
	}
	return section(secMetrics, s.col.State)
}

// optional wraps the walk of a component the snapshot records behind a
// presence flag: the flag must agree with has — whether this session, built
// from the snapshot's own config, has that component — and walk runs only
// when it is present.
func optional(name string, has bool, walk func(*checkpoint.Codec)) func(*checkpoint.Codec) {
	return func(c *checkpoint.Codec) {
		got := has
		c.Bool(&got)
		if got != has {
			c.Fail(ErrCorrupt, "%s presence %v contradicts config", name, got)
		} else if has {
			walk(c)
		}
	}
}

// queuedJobBytes is a lower bound on one serialized pending arrival
// (Int ID + F64 arrival + F64 duration + NumResources × F64).
const queuedJobBytes = 8*3 + 8*trace.NumResources

// sessionState walks the ingestion and fault-retry layer: counters, the
// undispatched arrival queue (validating its arrival-order invariant when
// decoding), the per-job retry map (sorted by ID for a canonical byte
// stream), and the retry policy component, whose presence must match the
// rebuilt config.
func (s *Session) sessionState(c *checkpoint.Codec) {
	dec := c.Decoding()
	c.I64(&s.ingested)
	c.Bool(&s.finished)
	pending := s.pq.jobs()
	nq := c.Count(len(pending), queuedJobBytes)
	if dec {
		if c.Err() == nil && s.ingested < 0 {
			c.Fail(ErrCorrupt, "ingested %d", s.ingested)
			return
		}
		s.pq.reset()
		s.pq.reserve(nq)
	}
	prev := math.Inf(-1)
	var job trace.Job // decoding: the job read, then appended to the queue
	for k := 0; k < nq; k++ {
		tj := &job
		if !dec {
			tj = &pending[k]
		}
		c.Int(&tj.ID)
		c.F64(&tj.Arrival)
		c.F64(&tj.Duration)
		for r := range tj.Req {
			c.F64(&tj.Req[r])
		}
		if !dec {
			continue
		}
		if c.Err() != nil {
			return
		}
		// Submission validated every queued job; a retry keeps its demand.
		if err := tj.Validate(); err != nil {
			c.Fail(ErrCorrupt, "arrival queue: %v", err)
			return
		}
		if tj.Arrival < prev {
			c.Fail(ErrCorrupt, "arrival queue out of order at %d", k)
			return
		}
		prev = tj.Arrival
		s.pq.enqueue(*tj)
	}
	hasFaults := s.faults
	c.Bool(&hasFaults)
	if hasFaults != s.faults {
		c.Fail(ErrCorrupt, "fault layer presence %v contradicts config", hasFaults)
		return
	}
	if hasFaults {
		ids := make([]int, 0, len(s.retry))
		for id := range s.retry {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		nr := c.Count(len(ids), 8+8+8)
		if dec {
			ids = make([]int, nr)
		}
		for _, id := range ids {
			ri := s.retry[id]
			c.Int(&id)
			c.Int(&ri.attempts)
			c.F64(&ri.orig)
			if !dec {
				continue
			}
			if c.Err() != nil {
				return
			}
			if ri.attempts < 1 || math.IsNaN(ri.orig) {
				c.Fail(ErrCorrupt, "retry record for job %d: %d attempts, orig %v", id, ri.attempts, ri.orig)
				return
			}
			s.retry[id] = ri
		}
		c.Component(s.rp)
	}
	c.I64(&s.interrupted)
	c.I64(&s.retried)
	c.I64(&s.lost)
	c.F64(&s.lostWork)
	c.I64(&s.migrated)
	if !dec || c.Err() != nil {
		return
	}
	if s.interrupted < 0 || s.retried < 0 || s.lost < 0 || math.IsNaN(s.lostWork) || s.migrated < 0 {
		c.Fail(ErrCorrupt, "fault tallies %d/%d/%d/%d/%v",
			s.interrupted, s.migrated, s.retried, s.lost, s.lostWork)
	}
}

// Restore rebuilds a Session from a snapshot written by Checkpoint. The
// returned session continues exactly where the checkpointed one stopped:
// stepping it produces the same events, the same decisions, and — at Drain —
// a Result bitwise identical to the uninterrupted run's.
//
// The Config is embedded in the snapshot (warmup trace excluded — its effect
// lives in the restored agent weights), so opts carry only the re-attachable
// runtime state: WithObserver, WithContext, WithAutoCheckpoint. Restore
// fails with ErrCorrupt, ErrVersion, or ErrConfigMismatch on damaged input,
// never with a partially built session. A snapshot of an earlier format
// version, including every one the removed parallel tier wrote, is
// ErrVersion.
func Restore(r io.Reader, opts ...SessionOption) (*Session, error) {
	rd, err := checkpoint.NewReader(r)
	if err != nil {
		return nil, err
	}

	cfg, err := restoreConfig(rd)
	if err != nil {
		return nil, err
	}

	// Rebuild an equivalent empty session; every stateful component inside it
	// is then overwritten from the snapshot, so the construction-time RNG
	// draws and initial fault timers are irrelevant.
	s, err := NewSession(cfg, opts...)
	if err != nil {
		return nil, fmt.Errorf("hierdrl: restore: rebuild session: %w", err)
	}
	if err = s.state(rd.Section); err == nil {
		// Every ingested job is completed, lost, on a server, or still pending.
		if got := s.cl.Completed() + int64(s.cl.JobsInSystem()) + s.lost + int64(s.pq.pending()); got != s.ingested {
			err = fmt.Errorf("%w: %d jobs ingested, %d completed, lost, on a server or pending", ErrCorrupt, s.ingested, got)
		}
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// restoreConfig decodes and cross-checks the embedded Config: the section
// bytes must hash to the header fingerprint (the snapshot's identity), the
// JSON must unmarshal cleanly, and the result must pass the validation
// NewSession applies (a fingerprint-consistent snapshot can still carry
// settings no session was ever built from).
func restoreConfig(rd *checkpoint.Reader) (Config, error) {
	var cfg Config
	c, err := rd.Section(secConfig)
	if err != nil {
		return cfg, err
	}
	var cfgJSON []byte
	c.Bytes(&cfgJSON)
	if err := c.End(); err != nil {
		return cfg, err
	}
	if got := fnv64a(cfgJSON); got != rd.Fingerprint() {
		return cfg, fmt.Errorf("%w: header fingerprint %016x but config hashes to %016x",
			ErrConfigMismatch, rd.Fingerprint(), got)
	}
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return cfg, fmt.Errorf("%w: config: %v", ErrCorrupt, err)
	}
	cfg.WarmupTrace = nil
	if err := validate(&cfg); err != nil {
		return cfg, fmt.Errorf("%w: embedded config: %v", ErrConfigMismatch, err)
	}
	return cfg, nil
}

// Drained reports whether every ingested job has been dispatched and either
// completed or lost — the condition under which Step reports idle and Drain
// stops on fault runs (whose crash/repair timers never exhaust the event
// queue).
func (s *Session) Drained() bool { return s.drained() }

// FaultsEnabled reports whether the session injects failures
// (Config.Faults != FaultNone).
func (s *Session) FaultsEnabled() bool { return s.faults }

// autoCheckpoint is the periodic snapshot-to-disk layer configured by
// WithAutoCheckpoint.
type autoCheckpoint struct {
	path  string
	every int64
	keep  int
	last  int64 // completed-job count at the previous snapshot
}

// autoKeep is how many rotated snapshot generations WithAutoCheckpoint
// retains: path (newest), path.1, path.2.
const autoKeep = 3

// WithAutoCheckpoint writes a snapshot of the session to path every
// everyNJobs completed jobs (checked at epoch boundaries inside Step,
// StepUntil, and Drain; everyNJobs < 1 is treated as 1). Each write is
// crash-safe: the snapshot lands in path+".tmp" first and is renamed over
// path only once fully written, and the previous generations are kept as
// path.1 and path.2 — a crash mid-write never destroys the last good
// snapshot. A write failure surfaces from the driving Step/StepUntil/Drain
// call without terminating the run: the session itself stays consistent and
// resumable, and the next boundary retries. With WithContext, cancellation
// writes one final generation before it latches, so the newest file holds
// the instant the run stopped.
//
// The option applies to NewSession and Restore alike, so a resumed run keeps
// checkpointing to the same file.
func WithAutoCheckpoint(path string, everyNJobs int) SessionOption {
	return func(o *sessionOptions) {
		o.autoPath = path
		o.autoEvery = everyNJobs
	}
}

// autoTick writes a periodic snapshot if the completed-job threshold has
// passed since the last one. Called from tick with auto-checkpointing on.
func (s *Session) autoTick() error {
	done := s.cl.Completed()
	if done-s.auto.last < s.auto.every {
		return nil
	}
	s.auto.last = done
	if err := s.writeAutoCheckpoint(); err != nil {
		return fmt.Errorf("hierdrl: auto-checkpoint: %w", err)
	}
	return nil
}

// writeAutoCheckpoint performs one atomic snapshot write with rotation:
// serialize to path.tmp, shift the existing generations (path → path.1 →
// path.2), then rename the fresh file into place.
func (s *Session) writeAutoCheckpoint() error {
	tmp := s.auto.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	for g := s.auto.keep - 1; g >= 1; g-- {
		from := s.auto.path
		if g > 1 {
			from = fmt.Sprintf("%s.%d", s.auto.path, g-1)
		}
		to := fmt.Sprintf("%s.%d", s.auto.path, g)
		if err := os.Rename(from, to); err != nil && !os.IsNotExist(err) {
			os.Remove(tmp)
			return err
		}
	}
	return os.Rename(tmp, s.auto.path)
}
