// Command bench is the repository's benchmark: seven workloads over the
// public hierdrl API, eleven end-to-end metrics measured with tracing off,
// and a per-layer ledger measured from outside the program. README.md
// describes the workloads, the metrics and how they interact.
//
//	bench --workload W --seed S --seconds T --trace 0|1   one run (BENCHMARK.json's command)
//	bench [-workloads a,b] [-reps N] [-stage ...] [-out f] the whole suite, one process per run
//	bench compare A.json B.json                            classify every (workload, metric) pair
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		one       = fs.String("workload", "", "run this one workload in this process and print its result line")
		traceFlag = fs.Int("trace", 0, "with -workload: 1 runs the traced pass and prints the per-layer metrics")
		seed      = fs.Int64("seed", 1, "drives input generation; the program receives the generated jobs and Config.Seed")
		seconds   = fs.Float64("seconds", defaultSeconds, "how long one run repeats (set-up, pass) for")
		quick     = fs.Bool("quick", false, "1/200 sizes (what the test runs)")
		names     = fs.String("workloads", "", "suite: comma-separated workloads (default: all)")
		reps      = fs.Int("reps", 5, "suite: untraced runs per workload, interleaved round-robin")
		stage     = fs.String("stage", "all", "suite: e2e, trace, units or all")
		out       = fs.String("out", "", "suite: also write the report as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *one != "" {
		res, detail := runOne(runOpts{workload: *one, seed: *seed, seconds: *seconds, traced: *traceFlag != 0, quick: *quick})
		if detail.Error != "" {
			fmt.Fprintf(stderr, "bench: %s: %s\n", *one, detail.Error)
		}
		for _, c := range detail.Checks {
			if !c.OK {
				fmt.Fprintf(stderr, "bench: %s: check %s failed: %s\n", *one, c.Name, c.Note)
			}
		}
		enc := json.NewEncoder(stdout)
		if err := enc.Encode(detail); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	o := suiteOpts{seed: *seed, seconds: *seconds, quick: *quick, reps: *reps, out: *out}
	switch *stage {
	case "all":
		o.e2e, o.trace, o.units = true, true, true
	case "e2e":
		o.e2e = true
	case "trace":
		o.trace = true
	case "units":
		o.units = true
	default:
		fmt.Fprintf(stderr, "bench: unknown stage %q (want e2e, trace, units or all)\n", *stage)
		return 2
	}
	if *names == "" {
		for _, w := range workloads {
			o.workloads = append(o.workloads, w.name)
		}
	} else {
		for _, n := range strings.Split(*names, ",") {
			if _, err := findWorkload(n); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 2
			}
			o.workloads = append(o.workloads, n)
		}
	}
	if o.reps < 1 {
		fmt.Fprintln(stderr, "bench: -reps must be at least 1")
		return 2
	}
	rep, err := runSuite(o, spawnRun, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rep.print(stdout)
	if o.out != "" {
		if err := rep.write(o.out); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !rep.OK {
		return 1
	}
	return 0
}
