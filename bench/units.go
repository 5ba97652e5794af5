package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"

	"hierdrl/internal/benchfmt"
)

// runUnits measures the unit costs with the repository's existing
// micro-benchmarks, one `go test -bench` per package, and converts ns/op to
// each metric's unit. Count x unit cost should reproduce a traced self time
// (README.md); a unit cost that moves without its end-to-end metric moving is
// not a result.
func runUnits() (map[string]measured, error) {
	byPkg := map[string][]string{}
	var pkgs []string
	for _, u := range unitCosts {
		if _, seen := byPkg[u.pkg]; !seen {
			pkgs = append(pkgs, u.pkg)
		}
		byPkg[u.pkg] = append(byPkg[u.pkg], u.bench)
	}
	nsPerOp := map[string]float64{}
	for _, pkg := range pkgs {
		pattern := "^(" + strings.Join(byPkg[pkg], "|") + ")$"
		cmd := exec.Command("go", "test", "-run=NONE", "-bench", pattern, "-benchtime=200ms", pkg)
		cmd.Dir = repoRoot()
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench %s: %w\n%s%s", pkg, err, out, stderr.Bytes())
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if b, ok := benchfmt.ParseLine(sc.Text()); ok {
				nsPerOp[benchfmt.NormalizeName(b.Name)] = b.NsPerOp
			}
		}
	}
	units := make(map[string]measured, len(unitCosts))
	for _, u := range unitCosts {
		ns, ok := nsPerOp[u.bench]
		if !ok {
			return nil, fmt.Errorf("micro-benchmark %s (%s) printed no result", u.bench, u.pkg)
		}
		if u.unit == "us" {
			ns /= 1e3
		}
		units[u.name] = measured{Value: ns, Unit: u.unit}
	}
	return units, nil
}
