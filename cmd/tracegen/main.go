// Command tracegen generates synthetic Google-style workload traces in the
// canonical CSV format ("arrival,duration,cpu,mem,disk").
//
// Usage:
//
//	tracegen -jobs 95000 -servers 30 -seed 1 -out trace.csv
//	tracegen -preset scale-10k -out scale.csv
//	tracegen -scenario flashcrowd -out flash.csv
//	tracegen -scenario heavytail -servers 60 -jobs 40000 | hiersim -stream -servers 60
//
// Omitting -out writes to stdout. The -servers flag scales the arrival rate
// so the offered load matches the paper's 30-server operating point on a
// cluster of that size. The scale-10k preset emits the large-run
// benchmark workload (2,000,000 jobs calibrated for 10,000 servers) through
// the streaming generator, so it writes in constant memory. -scenario writes
// a registered workload scenario's job stream (see hiersim -list), also in
// constant memory; -servers/-jobs rescale the scenario when set explicitly,
// and replaying the CSV reproduces a hiersim -scenario run bit for bit.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"hierdrl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	jobs := flag.Int("jobs", 95000, "number of jobs to generate")
	servers := flag.Int("servers", 30, "cluster size the workload is calibrated for")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "output file (default stdout)")
	stats := flag.Bool("stats", false, "print workload statistics to stderr")
	preset := flag.String("preset", "", `workload preset: "scale-10k" = 2,000,000 jobs calibrated for 10,000 servers, written streaming (overrides -jobs/-servers unless set explicitly)`)
	scenario := flag.String("scenario", "",
		"write a registered workload scenario's job stream (see hiersim -list); -servers/-jobs rescale it when set explicitly")
	flag.Parse()

	if *scenario != "" && *preset != "" {
		log.Fatal("-scenario and -preset both pick a workload; use one")
	}
	switch *preset {
	case "":
	case "scale-10k":
		if !flagWasSet("servers") {
			*servers = hierdrl.ScaleM
		}
		if !flagWasSet("jobs") {
			*jobs = hierdrl.ScaleJobs
		}
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	if *jobs <= 0 || *servers <= 0 {
		log.Fatal("-jobs and -servers must be positive")
	}

	var tr *hierdrl.Trace
	if *preset == "" && *scenario == "" {
		tr = hierdrl.SyntheticTraceForCluster(*jobs, *servers, *seed)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("create %s: %v", *out, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatalf("close %s: %v", *out, err)
			}
		}()
		w = f
	}
	if tr != nil {
		if err := hierdrl.WriteTraceCSV(w, tr); err != nil {
			log.Fatalf("write trace: %v", err)
		}
		if *stats {
			s := hierdrl.TraceStatsOf(tr)
			fmt.Fprintf(os.Stderr,
				"jobs=%d span=%.0fs meanGap=%.2fs meanDur=%.0fs p95Dur=%.0fs meanCPU=%.3f offeredCPU=%.2f servers\n",
				s.Jobs, s.Span, s.MeanInterArrive, s.MeanDuration, s.P95Duration,
				s.MeanReq[0], s.OfferedLoad[0])
		}
		return
	}

	// Preset/scenario mode: pull from the incremental generator and write rows
	// as they are produced, tracking summary stats inline — a 2M-job trace
	// never exists in memory.
	var src hierdrl.JobSource
	if *scenario != "" {
		sc, ok := hierdrl.LookupScenario(*scenario)
		if !ok {
			log.Fatalf("unknown scenario %q; registered: %s",
				*scenario, strings.Join(hierdrl.Scenarios(), " "))
		}
		m, j := 0, 0
		if flagWasSet("servers") {
			m = *servers
		}
		if flagWasSet("jobs") {
			j = *jobs
		}
		var err error
		src, err = sc.Scaled(m, j).Source(*seed)
		if err != nil {
			log.Fatalf("scenario: %v", err)
		}
	} else {
		var err error
		src, err = hierdrl.ScaleStream(*jobs, *servers, *seed)
		if err != nil {
			log.Fatalf("generator: %v", err)
		}
	}
	var n int
	var span, durSum, cpuSum float64
	if err := hierdrl.WriteTraceCSVStream(w, func() (hierdrl.Job, bool) {
		j, ok := src.Next()
		if ok {
			n++
			span = j.Arrival
			durSum += j.Duration
			cpuSum += j.Req[0]
		}
		return j, ok
	}); err != nil {
		log.Fatalf("write trace: %v", err)
	}
	if *stats && n > 0 {
		meanGap := 0.0
		if n > 1 {
			meanGap = span / float64(n-1) // same definition as trace.Stats
		}
		fmt.Fprintf(os.Stderr, "jobs=%d span=%.0fs meanGap=%.2fs meanDur=%.0fs meanCPU=%.3f\n",
			n, span, meanGap, durSum/float64(n), cpuSum/float64(n))
	}
}

// flagWasSet reports whether the named flag was passed explicitly.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
