package hierdrl_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameLiveSymbols keeps the commands the docs quote runnable: every
// back-ticked `make <target>` in README / DESIGN / EXPERIMENTS is a target of
// the Makefile, every -flag on a `go run ./cmd/<bin>` line is defined by
// that binary's source, and every -exp name on a `go run ./cmd/experiments`
// line or in EXPERIMENTS.md's Runner table is an entry of that command's
// experiments table.
func TestDocsNameLiveSymbols(t *testing.T) {
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(read("Makefile"), -1) {
		targets[m[1]] = true
	}
	flagDef := regexp.MustCompile(`flag\.\w+\((?:&\w+, )?"([^"]+)"`)
	flagsOf := func(bin string) map[string]bool {
		t.Helper()
		files, err := filepath.Glob(filepath.Join("cmd", bin, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no source for ./cmd/%s (%v)", bin, err)
		}
		defined := map[string]bool{}
		for _, f := range files {
			for _, m := range flagDef.FindAllStringSubmatch(read(f), -1) {
				defined[m[1]] = true
			}
		}
		return defined
	}

	// The -exp names are the entries of cmd/experiments' one experiments table.
	exps := map[string]bool{"all": true}
	for _, m := range regexp.MustCompile(`\{name: "([a-z0-9]+)"`).FindAllStringSubmatch(read("cmd/experiments/main.go"), -1) {
		exps[m[1]] = true
	}
	if len(exps) < 2 {
		t.Fatal("found no entries in cmd/experiments' experiments table")
	}

	makeRef := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	goRun := regexp.MustCompile(`go run \./cmd/(\w+)([^#\n]*)`)
	flagRef := regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	expRef := regexp.MustCompile(`-exp ([a-z0-9]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for n, line := range strings.Split(read(doc), "\n") {
			for _, m := range makeRef.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: `make %s` is not a Makefile target", doc, n+1, m[1])
				}
			}
			for _, m := range goRun.FindAllStringSubmatch(line, -1) {
				defined := flagsOf(m[1])
				for _, f := range flagRef.FindAllStringSubmatch(m[2], -1) {
					if !defined[f[1]] {
						t.Errorf("%s:%d: ./cmd/%s defines no -%s", doc, n+1, m[1], f[1])
					}
				}
				if m[1] != "experiments" {
					continue
				}
				for _, e := range expRef.FindAllStringSubmatch(m[2], -1) {
					if !exps[e[1]] {
						t.Errorf("%s:%d: cmd/experiments has no -exp %s", doc, n+1, e[1])
					}
				}
			}
		}
	}

	// Every row of EXPERIMENTS.md's Runner table (its header cell is `-exp`)
	// names an experiment.
	_, runner, _ := strings.Cut(read("EXPERIMENTS.md"), "\n## Runner\n")
	runner, _, _ = strings.Cut(runner, "\n## ")
	rows := regexp.MustCompile("(?m)^\\| `([^`-][^`]*)`").FindAllStringSubmatch(runner, -1)
	if len(rows) == 0 {
		t.Fatal("EXPERIMENTS.md: found no Runner table")
	}
	for _, r := range rows {
		if !exps[r[1]] {
			t.Errorf("EXPERIMENTS.md Runner table: cmd/experiments has no -exp %s", r[1])
		}
	}
}
