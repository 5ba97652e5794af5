package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Verdicts of compare, per (workload, end-to-end metric).
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// classify compares B against A by the metric's own bound. The medians
// decide; where either side's inter-quartile spread exceeds the bound the
// runs cannot resolve a difference of that size, and the pair is unresolved
// unless every run of one side reads better than every run of the other.
func classify(def metricDef, a, b metricSummary, sameSeed bool) string {
	bound := math.Max(def.Bound*math.Abs(a.Median), def.floor)
	if def.exact && sameSeed {
		bound = 0 // simulated results repeat exactly at one seed
	}
	diff := b.Median - a.Median // positive = worse, after the sign flip below
	if def.Better == higher {
		diff = -diff
	}
	if bound > 0 && (a.Q3-a.Q1 > bound || b.Q3-b.Q1 > bound) {
		aMin, aMax := slices.Min(a.Values), slices.Max(a.Values)
		bMin, bMax := slices.Min(b.Values), slices.Max(b.Values)
		if aMin <= bMax && bMin <= aMax {
			return verdictUnresolved
		}
	}
	switch {
	case diff > bound:
		return verdictWorse
	case diff < -bound:
		return verdictBetter
	}
	return verdictSame
}

// compareMain implements `bench compare A.json B.json`: A is the parent, B
// the change. It exits non-zero on any "worse".
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if compareReports(a, b, stdout) {
		return 1
	}
	return 0
}

// compareReports prints one row per (workload, metric) present in both
// reports and says whether any is worse.
func compareReports(a, b *report, w io.Writer) (anyWorse bool) {
	sameSeed := a.Provenance.Seed == b.Provenance.Seed
	counts := map[string]int{}
	fmt.Fprintf(w, "%-12s %-18s %12s %24s %3s %12s %24s %3s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "n", "B median", "B q1..q3", "n", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		if sameSeed && wa.Fingerprint != wb.Fingerprint {
			fmt.Fprintf(w, "%-12s fingerprint_changed: %s -> %s\n", wa.Name, wa.Fingerprint, wb.Fingerprint)
		}
		for _, def := range endToEnd {
			ia := slices.IndexFunc(wa.EndToEnd, func(m metricSummary) bool { return m.Name == def.Name })
			ib := slices.IndexFunc(wb.EndToEnd, func(m metricSummary) bool { return m.Name == def.Name })
			if ia < 0 || ib < 0 {
				continue
			}
			ma, mb := wa.EndToEnd[ia], wb.EndToEnd[ib]
			verdict := classify(def, ma, mb, sameSeed)
			counts[verdict]++
			fmt.Fprintf(w, "%-12s %-18s %12.6g %11.5g..%-11.5g %3d %12.6g %11.5g..%-11.5g %3d  %s\n",
				wa.Name, def.Name, ma.Median, ma.Q1, ma.Q3, ma.N, mb.Median, mb.Q1, mb.Q3, mb.N, verdict)
		}
	}
	fmt.Fprintf(w, "%d same, %d better, %d worse, %d unresolved\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	return counts[verdictWorse] > 0
}
