// Pluggable: extend the framework without forking internal/ — register a
// custom allocation policy and a custom power manager through the public
// registry, then drive them with the streaming Session API as if jobs were
// arriving from a live queue.
//
//	go run ./examples/pluggable
//	go run ./examples/pluggable -jobs 200   # smoke-sized
package main

import (
	"flag"
	"fmt"
	"log"

	"hierdrl"
)

// coolestFirst is a thermal-style allocator: it sends each job to the awake
// server with the lowest committed CPU load, waking the first sleeper only
// when every awake server is above a load threshold.
type coolestFirst struct {
	threshold float64
}

func (c coolestFirst) Allocate(_ *hierdrl.ClusterJob, v *hierdrl.ClusterView) int {
	best, bestLoad := -1, 2.0
	firstSleeper := -1
	for i := 0; i < v.M; i++ {
		if v.State[i] == hierdrl.StateSleep {
			if firstSleeper < 0 {
				firstSleeper = i
			}
			continue
		}
		if load := v.Util[i][0] + v.Pending[i][0]; load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best >= 0 && (bestLoad < c.threshold || firstSleeper < 0) {
		return best
	}
	if firstSleeper >= 0 {
		return firstSleeper
	}
	return 0
}

// hysteresisNap is a custom power manager: it sleeps after a timeout that
// doubles each time the server is woken shortly after sleeping (exponential
// hysteresis), and resets once a sleep pays off.
type hysteresisNap struct {
	base, max float64
	current   float64
	lastSleep hierdrl.Time
}

func (h *hysteresisNap) OnIdle(t hierdrl.Time, _ *hierdrl.Server) float64 {
	if h.current == 0 {
		h.current = h.base
	}
	return h.current
}

func (h *hysteresisNap) OnArrival(t hierdrl.Time, _ *hierdrl.Server, before hierdrl.PowerState) {
	if before != hierdrl.StateSleep && before != hierdrl.StateShuttingDown {
		return
	}
	// Woken out of (or during) a sleep: if the sleep was short-lived the
	// timeout was too eager — back off. A long sleep earns a reset.
	if t-h.lastSleep < hierdrl.Time(10*h.base) {
		if h.current *= 2; h.current > h.max {
			h.current = h.max
		}
	} else {
		h.current = h.base
	}
	h.lastSleep = t
}

func (h *hysteresisNap) Observe(hierdrl.Time, float64, int) {}

func init() {
	hierdrl.RegisterAllocator("coolest-first", func(*hierdrl.Config, *hierdrl.RNG) (hierdrl.Allocator, error) {
		return coolestFirst{threshold: 0.6}, nil
	})
	hierdrl.RegisterPowerManager("hysteresis-nap", func(*hierdrl.Config, int, *hierdrl.RNG) (hierdrl.PowerManager, error) {
		return &hysteresisNap{base: 20, max: 320}, nil
	})
}

func main() {
	servers := flag.Int("servers", 8, "cluster size M")
	jobs := flag.Int("jobs", 2000, "workload length")
	flag.Parse()

	// The registered names resolve through Config exactly like built-ins.
	cfg := hierdrl.RoundRobin(*servers)
	cfg.Name = "coolest-first+nap"
	cfg.Alloc = "coolest-first"
	cfg.DPM = "hysteresis-nap"

	var transitions int
	s, err := hierdrl.NewSession(cfg, hierdrl.WithObserver(hierdrl.Observer{
		OnModeTransition: func(_ hierdrl.Time, _ int, _, _ hierdrl.PowerState) { transitions++ },
	}))
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// Stream jobs in one at a time, draining the clock behind the stream —
	// the pattern a live ingestion frontend would use.
	workload := hierdrl.SyntheticTraceForCluster(*jobs, *servers, 1)
	for i, j := range workload.Jobs {
		if err := s.Submit(j); err != nil {
			log.Fatal(err)
		}
		if i%500 == 499 {
			if err := s.StepUntil(hierdrl.Time(j.Arrival)); err != nil {
				log.Fatal(err)
			}
			snap := s.Snapshot()
			fmt.Printf("t=%7.0fs  %4d/%4d done  %6.0f W  %5.2f kWh\n",
				snap.Now.Seconds(), snap.Completed, snap.Ingested,
				snap.TotalPowerW, snap.EnergykWh)
		}
	}
	if err := s.Drain(); err != nil {
		log.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%s on %d servers: %.2f kWh, %.1f s avg latency, %d mode transitions\n",
		res.Summary.Policy, *servers, res.Summary.EnergykWh, res.Summary.AvgLatencySec, transitions)

	// Compare against the stock baselines on the same workload (round-robin
	// allocation in both, so the comparison isolates the power managers).
	for _, base := range []hierdrl.Config{hierdrl.RoundRobin(*servers), hierdrl.FixedTimeoutBaseline(*servers, 60)} {
		base.Alloc = hierdrl.AllocRoundRobin
		r, err := hierdrl.Run(base, workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %.2f kWh, %.1f s avg latency\n",
			r.Summary.Policy+":", r.Summary.EnergykWh, r.Summary.AvgLatencySec)
	}
}
