package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"hierdrl"
	"hierdrl/internal/local"
	"hierdrl/internal/lstm"
)

// The traced run measures every layer from outside the program: driver spans
// around the public Session calls (pass.go), a Step() loop that times and
// classifies single events, and timing decorators around the local tier,
// plugged in through the public power-manager registry. No program file
// knows about any of this.

// tracedDPM is the registry name of the decorated RL power manager.
const tracedDPM hierdrl.DPMKind = "bench-traced-rl"

// epochRingCap is the capacity of the program's own epoch ring on sharded
// traced passes; shard.* metrics cover the last epochRingCap epochs.
const epochRingCap = 65536

// tracedPredictor times the calls into one server's LSTM predictor. Embedding
// keeps the predictor's checkpoint methods, so decorated sessions survive
// Checkpoint/Restore.
type tracedPredictor struct {
	*lstm.Predictor
	observe, predict span
	trainRounds      int64
}

func (p *tracedPredictor) ObserveArrival(t float64) {
	rounds := p.TrainingRounds()
	t0 := nowNs()
	p.Predictor.ObserveArrival(t)
	p.observe.add(1, nowNs()-t0)
	p.trainRounds += int64(p.TrainingRounds() - rounds)
}

func (p *tracedPredictor) Predict() float64 {
	t0 := nowNs()
	v := p.Predictor.Predict()
	p.predict.add(1, nowNs()-t0)
	return v
}

// tracedPM times the calls into one server's RL power manager. Accumulators
// are per instance and only ever touched by the lane that owns the server, so
// they are race-free on the sharded tier; they are merged when the pass ends.
type tracedPM struct {
	*local.RLTimeout
	pred                   *tracedPredictor
	arrival, idle, observe span
	decisions, updates     int64
}

func (m *tracedPM) OnIdle(t hierdrl.Time, s *hierdrl.Server) float64 {
	d, u := m.Decisions(), m.Updates()
	t0 := nowNs()
	timeout := m.RLTimeout.OnIdle(t, s)
	m.idle.add(1, nowNs()-t0)
	m.decisions += m.Decisions() - d
	m.updates += m.Updates() - u
	return timeout
}

func (m *tracedPM) OnArrival(t hierdrl.Time, s *hierdrl.Server, before hierdrl.PowerState) {
	t0 := nowNs()
	m.RLTimeout.OnArrival(t, s, before)
	m.arrival.add(1, nowNs()-t0)
}

func (m *tracedPM) Observe(t hierdrl.Time, powerW float64, jobsInSystem int) {
	t0 := nowNs()
	m.RLTimeout.Observe(t, powerW, jobsInSystem)
	m.observe.add(1, nowNs()-t0)
}

// tracedPMs collects every decorated power manager the registry factory
// builds. The factory runs on the goroutine that calls NewSession or Restore,
// and one traced pass runs at a time, so the slice needs no lock. (The
// registry hands factories nothing but the Config, which leaves a package
// variable as the only way back to the pass.)
var tracedPMs []*tracedPM

func init() {
	// Mirrors the built-in "rl" factory, including its rng.Split() order
	// (predictor first, then the timeout learner), so a decorated run draws
	// the same random numbers as a plain one.
	hierdrl.RegisterPowerManager(tracedDPM, func(cfg *hierdrl.Config, _ int, rng *hierdrl.RNG) (hierdrl.PowerManager, error) {
		pred := &tracedPredictor{Predictor: lstm.NewPredictor(cfg.LSTMPredictor, rng.Split())}
		pm, err := local.NewRLTimeout(cfg.LocalRL, pred, rng.Split())
		if err != nil {
			return nil, err
		}
		m := &tracedPM{RLTimeout: pm, pred: pred}
		tracedPMs = append(tracedPMs, m)
		return m, nil
	})
}

// localTotals is the merge of every decorator's accumulators.
type localTotals struct {
	arrival, idle, observe     span
	lstmObserve, lstmPredict   span
	decisions, updates, rounds int64
}

// tracer holds the per-event spans of one traced pass.
type tracer struct {
	decision, completion, timer span
	decisionNs                  []uint32
	events                      int64

	agentDecisions, agentUpdates int64 // the agent's counts when the pass began
	local                        localTotals
	shardNs                      map[string]int64
}

func newTracer(jobs int) *tracer {
	tracedPMs = tracedPMs[:0]
	return &tracer{decisionNs: make([]uint32, 0, jobs+jobs/8)}
}

func parseAgentDiag(diag string) (decisions, updates int64, err error) {
	if _, err = fmt.Sscanf(diag, "drl{decisions=%d updates=%d", &decisions, &updates); err != nil {
		err = fmt.Errorf("agent diagnostics %q: %w", diag, err)
	}
	return decisions, updates, err
}

// begin runs after set-up and before the measured interval. The agent's
// decision and update counts include the offline phase and are only readable
// through Result, which ends the learning episode; so they are read from a
// throw-away clone of the fresh session. Then every decorator built so far
// (warmup rollout, clone) is zeroed: only the measured pass counts.
func (tr *tracer) begin(s *hierdrl.Session, drl bool) error {
	if drl {
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			return err
		}
		clone, err := hierdrl.Restore(&buf)
		if err != nil {
			return err
		}
		res, err := clone.Result()
		clone.Close()
		if err != nil {
			return err
		}
		if tr.agentDecisions, tr.agentUpdates, err = parseAgentDiag(res.AgentDiag); err != nil {
			return err
		}
	}
	for _, m := range tracedPMs {
		*m = tracedPM{RLTimeout: m.RLTimeout, pred: m.pred}
		*m.pred = tracedPredictor{Predictor: m.pred.Predictor}
	}
	return nil
}

// advance drives Step() until the chunk's last arrival has been dispatched
// and, on the final chunk, until the run has drained. Each step is timed from
// the clock reading that ended the previous one and classified by what it
// changed: an arrival left the pending queue (a decision epoch), a job
// completed, or neither (a timer: power-mode transition, timeout, fault
// clock). On the sharded tier one step is one epoch. It returns the last
// clock reading.
//
// The chunk ends when the pending queue is empty (stream) or when `done`
// arrivals have been dispatched (batch); both leave the same events unfired
// as StepUntil(last arrival) except same-instant ties, and the fingerprint
// check proves the results equal.
func (tr *tracer) advance(s *hierdrl.Session, t int64, stream bool, done int64, final bool) (int64, error) {
	pending, completed := s.Pending(), s.Completed()
	for {
		switch {
		case final:
			if s.FaultsEnabled() && s.Drained() {
				return t, nil
			}
		case stream:
			if pending == 0 {
				return t, nil
			}
		default:
			if tr.decision.count >= done {
				return t, nil
			}
		}
		fired, err := s.Step()
		now := nowNs()
		if err != nil {
			return now, err
		}
		if !fired {
			return now, nil
		}
		d := now - t
		t = now
		tr.events++
		p, c := s.Pending(), s.Completed()
		switch {
		case p < pending:
			tr.decision.add(1, d)
			tr.decisionNs = append(tr.decisionNs, uint32(min(d, 1<<32-1)))
		case c > completed:
			tr.completion.add(1, d)
		default:
			tr.timer.add(1, d)
		}
		pending, completed = p, c
	}
}

// end closes the session, merges the decorators and, on the sharded tier,
// sums the program's epoch ring per phase.
func (tr *tracer) end(s *hierdrl.Session, shards int) error {
	if shards > 1 {
		var err error
		if tr.shardNs, err = epochPhases(s); err != nil {
			return err
		}
	}
	// Close joins the lane workers: after it no decorator is running.
	if err := s.Close(); err != nil {
		return err
	}
	for _, m := range tracedPMs {
		l := &tr.local
		l.arrival.add(m.arrival.count, m.arrival.busyNs)
		l.idle.add(m.idle.count, m.idle.busyNs)
		l.observe.add(m.observe.count, m.observe.busyNs)
		l.lstmObserve.add(m.pred.observe.count, m.pred.observe.busyNs)
		l.lstmPredict.add(m.pred.predict.count, m.pred.predict.busyNs)
		l.decisions += m.decisions
		l.updates += m.updates
		l.rounds += m.pred.trainRounds
	}
	return nil
}

// decisionQuantilesUs returns the median and 99th percentile of the
// decision-step latency.
func (tr *tracer) decisionQuantilesUs() (p50, p99 float64) {
	if len(tr.decisionNs) == 0 {
		return 0, 0
	}
	slices.Sort(tr.decisionNs)
	at := func(q float64) float64 { return float64(tr.decisionNs[int(q*float64(len(tr.decisionNs)-1))]) / 1e3 }
	return at(0.50), at(0.99)
}

// epochPhases streams the session's Chrome-trace dump and sums the duration
// of each segment name, in nanoseconds.
func epochPhases(s *hierdrl.Session) (map[string]int64, error) {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(s.WriteEpochTrace(pw)) }()
	defer pr.Close() // unblocks the writer if decoding stops early
	dec := json.NewDecoder(pr)
	for { // skip to the traceEvents array
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("epoch trace: %w", err)
		}
		if key, ok := tok.(string); ok && key == "traceEvents" {
			break
		}
	}
	if _, err := dec.Token(); err != nil { // '['
		return nil, fmt.Errorf("epoch trace: %w", err)
	}
	sums := map[string]int64{}
	for dec.More() {
		var ev struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"` // microseconds
		}
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("epoch trace: %w", err)
		}
		if ev.Ph == "X" {
			sums[ev.Name] += int64(ev.Dur * 1e3)
		}
	}
	// Read the tail so the writer finishes and its error, if any, arrives.
	if _, err := io.Copy(io.Discard, pr); err != nil {
		return nil, fmt.Errorf("epoch trace: %w", err)
	}
	return sums, nil
}

// layerMetrics turns a traced pass into the per-layer metric set. untracedNs
// is the wall of an untraced pass over the same inputs, for the overhead.
func layerMetrics(w *workload, r *passResult, untracedNs int64) map[string]measured {
	tr := r.steps
	m := map[string]float64{}
	putSpan := func(name string, s span) {
		m[name+".count"] = float64(s.count)
		m[name+".busy_s"] = s.seconds()
	}
	jobs := float64(r.ingested)
	l := tr.local

	m["session.new.busy_s"] = float64(r.setupNs) / 1e9
	putSpan("trace.next", r.next)
	putSpan("session.submit", r.submit)
	m["session.result.busy_s"] = r.result.seconds()
	putSpan("session.step.decision", tr.decision)
	m["session.step.decision.p50_us"], m["session.step.decision.p99_us"] = tr.decisionQuantilesUs()
	putSpan("session.step.completion", tr.completion)
	putSpan("session.step.timer", tr.timer)
	putSpan("local.on_arrival", l.arrival)
	putSpan("local.on_idle", l.idle)
	putSpan("local.observe", l.observe)
	m["local.decisions"] = float64(l.decisions)
	m["local.updates"] = float64(l.updates)
	putSpan("lstm.observe_arrival", l.lstmObserve)
	putSpan("lstm.predict", l.lstmPredict)
	m["lstm.train_rounds"] = float64(l.rounds)

	// Self time = span minus children. The predictor runs inside the power
	// manager, the power manager inside a step. The agent cannot be
	// decorated (the session injects it), so on DRL workloads the global
	// tier is what remains of the decision steps once the local tier's
	// arrival hook is taken out; it includes the dispatch into the cluster.
	steps := tr.decision.seconds() + tr.completion.seconds() + tr.timer.seconds()
	localBusy := l.arrival.seconds() + l.idle.seconds() + l.observe.seconds()
	lstmSelf := l.lstmObserve.seconds() + l.lstmPredict.seconds()
	globalSelf := 0.0
	if w.drl() {
		globalSelf = tr.decision.seconds() - l.arrival.seconds()
		if d, u, err := parseAgentDiag(r.res.AgentDiag); err == nil {
			m["global.decisions"] = float64(d - tr.agentDecisions)
			m["global.updates"] = float64(u - tr.agentUpdates)
		}
	}
	engineSelf := steps - globalSelf - localBusy
	m["global.self_s"] = globalSelf
	m["lstm.self_s"] = lstmSelf
	m["local.self_s"] = localBusy - lstmSelf
	m["engine.self_s"] = engineSelf
	covered := steps + r.next.seconds() + r.submit.seconds() + r.result.seconds() +
		r.save.seconds() + r.restore.seconds()
	m["ledger.coverage"] = covered / (float64(r.wallNs) / 1e9)
	m["trace.overhead_frac"] = float64(r.wallNs)/float64(untracedNs) - 1

	m["sim.events"] = float64(tr.events)
	m["sim.events_per_job"] = float64(tr.events) / jobs
	m["cluster.wakeups"] = float64(r.res.TotalWakeups)
	m["cluster.shutdowns"] = float64(r.res.TotalShutdowns)
	m["cluster.wakeup_per_job"] = float64(r.res.TotalWakeups) / jobs
	sum := r.res.Summary
	m["fault.failures"] = float64(sum.Failures)
	m["fault.interrupted"] = float64(sum.JobsInterrupted)
	m["fault.retried"] = float64(sum.JobsRetried)
	m["fault.retry_per_job"] = float64(sum.JobsRetried) / jobs

	putSpan("checkpoint.save", r.save)
	m["checkpoint.save.bytes"] = float64(r.saveBytes)
	putSpan("checkpoint.restore", r.restore)
	if r.save.busyNs > 0 {
		m["checkpoint.save_mb_per_s"] = float64(r.saveBytes) / 1e6 / r.save.seconds()
	}
	if r.restore.busyNs > 0 {
		m["checkpoint.restore_mb_per_s"] = float64(r.saveBytes) / 1e6 / r.restore.seconds()
	}
	var shardTotal int64
	for _, ns := range tr.shardNs {
		shardTotal += ns
	}
	for _, p := range shardPhases {
		ns := tr.shardNs[p.segment]
		m[p.stem+".busy_s"] = float64(ns) / 1e9
		if shardTotal > 0 {
			m[p.stem+".share"] = float64(ns) / float64(shardTotal)
		}
	}

	out := make(map[string]measured, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = measured{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// ledgerRow is one layer's share of a traced pass.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	SelfS    float64 `json:"self_s"`
	NsPerJob float64 `json:"ns_per_job"`
	Share    float64 `json:"share"`
}

// ledger lays the self times out as rows that sum to the covered part of the
// traced pass wall.
func ledger(layers map[string]measured, jobs int64, wallS float64) []ledgerRow {
	rows := []ledgerRow{
		{Layer: "global", SelfS: layers["global.self_s"].Value},
		{Layer: "lstm", SelfS: layers["lstm.self_s"].Value},
		{Layer: "local", SelfS: layers["local.self_s"].Value},
		{Layer: "engine", SelfS: layers["engine.self_s"].Value},
		{Layer: "trace", SelfS: layers["trace.next.busy_s"].Value},
		{Layer: "session", SelfS: layers["session.submit.busy_s"].Value + layers["session.result.busy_s"].Value},
		{Layer: "checkpoint", SelfS: layers["checkpoint.save.busy_s"].Value + layers["checkpoint.restore.busy_s"].Value},
	}
	for i := range rows {
		rows[i].NsPerJob = rows[i].SelfS * 1e9 / float64(jobs)
		rows[i].Share = rows[i].SelfS / wallS
	}
	return rows
}
