// Package metrics collects the evaluation measurements of Sec. VII:
// accumulated job latency and energy versus job count (Fig. 8/9 series),
// summary rows at a fixed job count (Table I), and per-job averages for the
// trade-off study (Fig. 10).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"hierdrl/internal/cluster"
	"hierdrl/internal/sim"
	"hierdrl/internal/telemetry"
)

// JoulesPerKWh converts joules to kilowatt-hours.
const JoulesPerKWh = 3.6e6

// Checkpoint is one point of the Fig. 8/9 accumulated series, captured when
// the Nth job completes.
type Checkpoint struct {
	// Jobs is the number of completed jobs at this checkpoint.
	Jobs int
	// Time is the simulation time of the checkpoint.
	Time sim.Time
	// AccLatencySec is the accumulated latency of all completed jobs.
	AccLatencySec float64
	// EnergykWh is the cluster energy consumed so far.
	EnergykWh float64
}

// Summary is one Table I row plus the per-job averages used by Fig. 10.
type Summary struct {
	Policy           string
	M                int
	Jobs             int
	DurationSec      float64 // simulated span
	EnergykWh        float64
	AccLatencySec    float64
	AvgPowerW        float64
	AvgLatencySec    float64
	AvgEnergyJPerJob float64
	// Latency percentiles, read from the collector's latency histogram:
	// each within 2^-7 of the exact order statistic (DESIGN.md §17).
	P50LatencySec float64
	P95LatencySec float64
	P99LatencySec float64
	MeanWaitSec   float64
	Wakeups       int64
	Shutdowns     int64

	// Robustness metrics (fault injection). Fault-free runs report
	// Availability 1 and zeros elsewhere.
	Availability    float64 // 1 - (server-seconds down / M * duration)
	MTTRSec         float64 // mean downtime of completed repairs
	Failures        int64
	Repairs         int64
	JobsInterrupted int64   // crash evictions (a job can count more than once)
	JobsMigrated    int64   // drain-time migrations (graceful, no work lost)
	JobsRetried     int64   // evictions/migrations the retry policy requeued
	JobsLost        int64   // jobs dropped by the retry policy
	LostWorkSec     float64 // executed-then-discarded work integral
	DomainOutages   int64   // whole-failure-domain simultaneous-down episodes
	DegradedSec     float64 // server-seconds spent fail-slow (speed < nominal)
	Drains          int64   // maintenance windows opened
}

// String renders the summary as a single aligned row.
func (s Summary) String() string {
	return fmt.Sprintf("%-14s M=%-3d jobs=%-7d energy=%8.2f kWh  accLat=%8.2f e6 s  power=%8.2f W  avgLat=%7.1f s",
		s.Policy, s.M, s.Jobs, s.EnergykWh, s.AccLatencySec/1e6, s.AvgPowerW, s.AvgLatencySec)
}

// Collector accumulates per-job and per-cluster measurements during one run.
type Collector struct {
	checkpointEvery int

	accLatency float64
	// waitSum accumulates every completion's wait in completion order, the
	// whole of what MeanWaitSec needs.
	waitSum float64

	checkpoints []Checkpoint
	clusterRef  *cluster.Cluster

	// OnCheckpoint fires after each checkpoint is recorded (requires a
	// positive checkpoint interval). Nil by default.
	OnCheckpoint func(cp Checkpoint)

	// sk receives every completion (per-job-class latency histograms, whose
	// sum is the overall one, and the wait histogram): the summary
	// percentiles and the live endpoint's quantiles both read it, and its
	// memory is fixed. Sketches allocates it on first use, not NewCollector:
	// zeroing its 90.2 KB is a large share of a streamed session's set-up.
	sk *telemetry.SketchSet
}

// NewCollector returns a collector that records a checkpoint every
// checkpointEvery completions (0 disables the series).
func NewCollector(c *cluster.Cluster, checkpointEvery int) *Collector {
	if checkpointEvery < 0 {
		panic(fmt.Sprintf("metrics: negative checkpoint interval %d", checkpointEvery))
	}
	return &Collector{checkpointEvery: checkpointEvery, clusterRef: c}
}

// Sketches returns the collector's quantile histograms, allocating the
// empty set on first use.
func (c *Collector) Sketches() *telemetry.SketchSet {
	if c.sk == nil {
		c.sk = new(telemetry.SketchSet)
	}
	return c.sk
}

// JobDone records a completed job. Wire it to cluster.OnJobDone, which fires
// after the cluster counted the completion.
func (c *Collector) JobDone(t sim.Time, j *cluster.Job) {
	lat := j.Latency()
	c.accLatency += lat
	wait := j.WaitTime()
	c.Sketches().Record(telemetry.JobClassOf(j.Duration), lat, wait)
	c.waitSum += wait
	if n := c.Completed(); c.checkpointEvery > 0 && n%c.checkpointEvery == 0 {
		cp := Checkpoint{
			Jobs:          n,
			Time:          t,
			AccLatencySec: c.accLatency,
			EnergykWh:     c.clusterRef.TotalEnergyJoules(t) / JoulesPerKWh,
		}
		c.checkpoints = append(c.checkpoints, cp)
		if c.OnCheckpoint != nil {
			c.OnCheckpoint(cp)
		}
	}
}

// Completed returns the number of completions recorded: the cluster's count.
func (c *Collector) Completed() int { return int(c.clusterRef.Completed()) }

// AccLatency returns the accumulated latency in seconds.
func (c *Collector) AccLatency() float64 { return c.accLatency }

// Checkpoints returns the recorded Fig. 8/9 series.
func (c *Collector) Checkpoints() []Checkpoint { return c.checkpoints }

// Summarize produces the Table I row at the current simulation time. The
// retry-path fault tallies (JobsInterrupted through LostWorkSec) belong to
// the caller, which fills them in.
func (c *Collector) Summarize(policy string, now sim.Time) Summary {
	energyJ := c.clusterRef.TotalEnergyJoules(now)
	n := c.Completed()
	s := Summary{
		Policy:        policy,
		M:             c.clusterRef.M(),
		Jobs:          n,
		DurationSec:   now.Seconds(),
		EnergykWh:     energyJ / JoulesPerKWh,
		AccLatencySec: c.accLatency,
	}
	if now > 0 {
		s.AvgPowerW = energyJ / now.Seconds()
	}
	if n > 0 {
		s.AvgLatencySec = c.accLatency / float64(n)
		s.AvgEnergyJPerJob = energyJ / float64(n)
		s.MeanWaitSec = c.waitSum / float64(n)
		m := c.Sketches().Latency()
		s.P50LatencySec = m.Quantile(0.50)
		s.P95LatencySec = m.Quantile(0.95)
		s.P99LatencySec = m.Quantile(0.99)
	}
	for i := 0; i < c.clusterRef.M(); i++ {
		s.Wakeups += c.clusterRef.Server(i).Wakeups()
		s.Shutdowns += c.clusterRef.Server(i).Shutdowns()
	}
	var downSec, repairedSec float64
	for i := 0; i < c.clusterRef.M(); i++ {
		srv := c.clusterRef.Server(i)
		s.Failures += srv.Failures()
		s.Repairs += srv.Repairs()
		downSec += srv.DownSeconds(now)
		repairedSec += srv.RepairedDownSeconds()
		s.DegradedSec += srv.DegradedSeconds(now)
		s.Drains += srv.Drains()
	}
	s.DomainOutages = c.clusterRef.DomainOutages()
	s.Availability = 1
	if now > 0 {
		s.Availability = 1 - downSec/(float64(c.clusterRef.M())*now.Seconds())
	}
	if s.Repairs > 0 {
		s.MTTRSec = repairedSec / float64(s.Repairs)
	}
	return s
}

// TradeoffPoint is one point of the Fig. 10 study: per-job averages achieved
// by one configuration.
type TradeoffPoint struct {
	Label            string
	Weight           float64 // the latency/power weight that produced it
	AvgLatencySec    float64
	AvgEnergyJPerJob float64
}

// ParetoFront filters points to the non-dominated subset (lower latency and
// lower energy are both better), sorted by latency.
func ParetoFront(points []TradeoffPoint) []TradeoffPoint {
	sorted := append([]TradeoffPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].AvgLatencySec != sorted[j].AvgLatencySec {
			return sorted[i].AvgLatencySec < sorted[j].AvgLatencySec
		}
		return sorted[i].AvgEnergyJPerJob < sorted[j].AvgEnergyJPerJob
	})
	var front []TradeoffPoint
	best := math.Inf(1)
	for _, p := range sorted {
		if p.AvgEnergyJPerJob < best-1e-12 {
			front = append(front, p)
			best = p.AvgEnergyJPerJob
		}
	}
	return front
}

// HypervolumeArea returns the area dominated by the Pareto front of points
// relative to the reference (refLat, refEnergy) corner — the "smallest area
// against the axes" criterion the paper uses to compare trade-off curves
// (smaller front-to-origin area = better; we report the dominated area,
// larger = better).
func HypervolumeArea(points []TradeoffPoint, refLat, refEnergy float64) float64 {
	// Standard 2-D hypervolume with minimization on both axes: sweep the
	// front in increasing latency; each point dominates the rectangle
	// between its energy and the reference energy, over the latency span to
	// the next point.
	front := ParetoFront(points)
	var area float64
	for i, p := range front {
		if p.AvgLatencySec >= refLat || p.AvgEnergyJPerJob >= refEnergy {
			continue
		}
		nextLat := refLat
		if i+1 < len(front) && front[i+1].AvgLatencySec < refLat {
			nextLat = front[i+1].AvgLatencySec
		}
		area += (nextLat - p.AvgLatencySec) * (refEnergy - p.AvgEnergyJPerJob)
	}
	return area
}
