// Powermanager: a single-server study of the local tier (Sec. VI). One
// machine receives a bursty arrival stream; we compare the RL timeout
// manager (with an LSTM or EWMA predictor) against always-on, ad-hoc
// immediate sleep, and fixed timeouts — the per-server version of Fig. 4.
//
//	go run ./examples/powermanager
//	go run ./examples/powermanager -jobs 150   # smoke-sized
package main

import (
	"flag"
	"fmt"
	"log"

	"hierdrl"
)

func main() {
	jobs := flag.Int("jobs", 1500, "workload length")
	flag.Parse()

	const m = 1
	// One server's worth of arrivals: short jobs in bursts separated by
	// long quiet periods — exactly the regime where timeout choice matters.
	gen := hierdrl.PaperWorkload(*jobs, m)
	gen.Base.Rate = 1.0 / 420 // one job every ~7 minutes on average
	gen.Mods[0].Factor = 10   // ...arriving mostly in bursts
	gen.Mods[0].MeanEverySec = 2 * 3600
	gen.Mods[0].MeanLenSec = 900
	job := &gen.Classes[0]
	job.Duration.Median = 150 // short jobs (median 2.5 min)
	job.Duration.Sigma = 0.5
	job.CPU.Median = 0.3 // each job loads the machine noticeably
	workload, err := hierdrl.GenerateTrace(gen, 7)
	if err != nil {
		log.Fatal(err)
	}

	type system struct {
		name string
		cfg  hierdrl.Config
	}
	systems := []system{
		{"always-on", func() hierdrl.Config {
			c := hierdrl.RoundRobin(m)
			return c
		}()},
		{"ad-hoc (sleep now)", func() hierdrl.Config {
			c := hierdrl.RoundRobin(m)
			c.DPM = hierdrl.DPMAdHoc
			return c
		}()},
		{"fixed timeout 30s", func() hierdrl.Config {
			c := hierdrl.RoundRobin(m)
			c.DPM = hierdrl.DPMFixedTimeout
			c.FixedTimeoutSec = 30
			return c
		}()},
		{"fixed timeout 90s", func() hierdrl.Config {
			c := hierdrl.RoundRobin(m)
			c.DPM = hierdrl.DPMFixedTimeout
			c.FixedTimeoutSec = 90
			return c
		}()},
		{"RL + EWMA predictor", func() hierdrl.Config {
			c := hierdrl.Hierarchical(m)
			c.Alloc = hierdrl.AllocRoundRobin // single server: allocation is trivial
			c.Predictor = hierdrl.PredictorEWMA
			return c
		}()},
		{"RL + LSTM predictor", func() hierdrl.Config {
			c := hierdrl.Hierarchical(m)
			c.Alloc = hierdrl.AllocRoundRobin
			c.Predictor = hierdrl.PredictorLSTM
			return c
		}()},
	}

	fmt.Printf("%-22s %12s %12s %12s %12s\n",
		"policy", "energy(kWh)", "avgLat(s)", "wakeups", "avgPower(W)")
	for _, sys := range systems {
		res, err := hierdrl.Run(sys.cfg, workload)
		if err != nil {
			log.Fatalf("%s: %v", sys.name, err)
		}
		fmt.Printf("%-22s %12.3f %12.1f %12d %12.1f\n",
			sys.name, res.Summary.EnergykWh, res.Summary.AvgLatencySec,
			res.Summary.Wakeups, res.Summary.AvgPowerW)
	}
	fmt.Println("\nthe RL manager should land between always-on (fast, hungry)")
	fmt.Println("and ad-hoc (frugal, slow): most of the energy saving at a")
	fmt.Println("fraction of the latency cost — the Fig. 4(b) effect.")
}
