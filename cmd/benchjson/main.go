// Command benchjson converts `go test -bench` text output (stdin) into a
// JSON document (stdout) for machine tracking of the perf trajectory across
// PRs. The raw benchmark lines are preserved verbatim under "raw", so the
// file stays benchstat-compatible: extract that array (one line each) and
// feed it to benchstat directly.
//
//	go test -run=NONE -bench=. -benchmem | benchjson > BENCH.json
//
// Besides BENCH_kernels.json, the Makefile uses it to record
// BENCH_table1.json (the end-to-end Table I benchmark's ns/op, allocs/op
// and bytes, under its own "table1" section). cmd/benchguard compares fresh
// runs against these committed baselines in CI.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hierdrl/internal/benchfmt"
)

// Output is the whole document.
type Output struct {
	Context    map[string]string    `json:"context"`
	Benchmarks []benchfmt.Benchmark `json:"benchmarks"`
	// Sim mirrors the event-engine benchmarks (also present in Benchmarks)
	// under their own key, so the simulation substrate's perf trajectory is
	// separately machine-readable across PRs.
	Sim []benchfmt.Benchmark `json:"sim,omitempty"`
	// Table1 mirrors the end-to-end experiment benchmarks (BenchmarkTable1_*)
	// the same way: the headline "one full run" cost per PR.
	Table1 []benchfmt.Benchmark `json:"table1,omitempty"`
	// Telemetry mirrors the observability hot-path benchmarks (t-digest
	// add/merge, epoch-span record): the per-job overhead budget of the live
	// telemetry subsystem, gated like any other kernel.
	Telemetry []benchfmt.Benchmark `json:"telemetry,omitempty"`
	Raw       []string             `json:"raw"`
}

// simBenchmarks are the benchmark name prefixes that make up the "sim"
// section: the discrete-event engine, the cluster observation path, and the
// end-to-end decision epoch it feeds.
var simBenchmarks = []string{
	"BenchmarkEventLoop",
	"BenchmarkSimulatorEvents",
	"BenchmarkSnapshot",
	"BenchmarkAllocateEpoch",
}

// telemetryBenchmarks are the benchmark name prefixes that make up the
// "telemetry" section: the mergeable-sketch and epoch-trace hot paths.
var telemetryBenchmarks = []string{
	"BenchmarkTDigest",
	"BenchmarkEpochSpan",
}

func hasPrefixAny(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func main() {
	// `go test` prints the cpu model but neither the core count nor the
	// toolchain; benchjson runs on the same machine from the same `go`, so it
	// records its own.
	out := Output{Context: map[string]string{
		"num_cpu":    strconv.Itoa(runtime.NumCPU()),
		"go_version": runtime.Version(),
	}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := benchfmt.ContextLine(line); ok {
			out.Raw = append(out.Raw, line)
			out.Context[k] = v
			continue
		}
		if b, ok := benchfmt.ParseLine(line); ok {
			out.Raw = append(out.Raw, line)
			out.Benchmarks = append(out.Benchmarks, b)
			if hasPrefixAny(b.Name, simBenchmarks) {
				out.Sim = append(out.Sim, b)
			}
			if strings.HasPrefix(b.Name, "BenchmarkTable1_") {
				out.Table1 = append(out.Table1, b)
			}
			if hasPrefixAny(b.Name, telemetryBenchmarks) {
				out.Telemetry = append(out.Telemetry, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
