// Package benchfmt parses `go test -bench` text output into benchmark
// records. Its caller is the repository benchmark's unit-cost stage
// (bench/units.go), which reads the root micro-benchmarks' ns/op through it.
package benchfmt

import (
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string
	Iterations int64
	NsPerOp    float64
}

// NormalizeName strips the trailing "-N" GOMAXPROCS suffix, so results
// recorded on machines with different core counts compare by benchmark
// identity.
func NormalizeName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// ParseLine parses "BenchmarkName-8  10  123 ns/op  4 B/op  2 allocs/op"
// into a Benchmark (units other than ns/op are skipped), reporting ok=false
// for non-benchmark lines.
func ParseLine(line string) (Benchmark, bool) {
	trimmed := strings.TrimSpace(line)
	if !strings.HasPrefix(trimmed, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(trimmed)
	if len(fields) < 3 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		if fields[i+1] != "ns/op" {
			continue
		}
		if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
			b.NsPerOp = v
		}
	}
	return b, true
}
