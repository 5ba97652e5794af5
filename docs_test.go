package hierdrl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameLiveSymbols keeps the commands the docs quote runnable: every
// back-ticked `make <target>` in README / DESIGN / EXPERIMENTS is a target of
// the Makefile, every -flag on a `go run ./cmd/<bin>` line is defined by
// that binary's source, every -exp name on a `go run ./cmd/experiments`
// line or in EXPERIMENTS.md's Runner table is an entry of that command's
// experiments table, and every back-ticked `Register*` / `With*` / `Run*`
// name and every hierdrl.X is declared at the top level of this package.
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
	flagDef := regexp.MustCompile(`\b(?:flag|fs)\.\w+\((?:&\w+, )?"([^"]+)"`)
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

	// The root package's top-level declarations (methods excluded).
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, f := range pkgs["hierdrl"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declared[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declared[n.Name] = true
						}
					}
				}
			}
		}
	}
	if !declared["NewSession"] {
		t.Fatal("parsed no declarations of package hierdrl")
	}

	makeRef := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	goRun := regexp.MustCompile(`go run \./cmd/(\w+)([^#\n]*)`)
	flagRef := regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	expRef := regexp.MustCompile(`-exp ([a-z0-9]+)`)
	apiRef := regexp.MustCompile("`((?:Register|With|Run)\\w*)|\\bhierdrl\\.([A-Z]\\w*)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		for n, line := range strings.Split(read(doc), "\n") {
			for _, m := range apiRef.FindAllStringSubmatch(line, -1) {
				if name := m[1] + m[2]; !declared[name] {
					t.Errorf("%s:%d: package hierdrl declares no %s", doc, n+1, name)
				}
			}
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

// TestSmokeGatesNameLiveTests keeps the Makefile's and CI's named test
// selections from going silently empty: `go test -run X` passes when nothing
// matches, so every name in a -run, -fuzz or -bench pattern there must be a
// Test, Fuzz or Benchmark function declared in some _test.go file. -run=NONE,
// the idiom for running no test, is the one exception.
func TestSmokeGatesNameLiveTests(t *testing.T) {
	declared := declaredTests(t)
	pattern := regexp.MustCompile(`-(run|fuzz|bench)[= ](?:'([^']*)'|([^\s']+))`)
	gates := 0
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue // a comment, in either file
			}
			for _, m := range pattern.FindAllStringSubmatch(line, -1) {
				if m[1] == "run" && m[3] == "NONE" {
					continue
				}
				for _, name := range strings.Split(m[2]+m[3], "|") {
					name = strings.TrimRight(strings.TrimPrefix(name, "^"), "$")
					if gates++; !declared[name] {
						t.Errorf("%s:%d: -%s names %q, which no _test.go declares", file, n+1, m[1], name)
					}
				}
			}
		}
	}
	if gates == 0 {
		t.Fatal("found no -run, -fuzz or -bench pattern in the Makefile or CI")
	}
}

// declaredTests returns the name of every Test, Fuzz and Benchmark function
// declared in a _test.go file of the repository.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(b), -1) {
			declared[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// TestDesignCitationsResolve keeps citations into DESIGN.md live. Every §N
// in the repository's Go files, the Makefile, CI, README.md, EXPERIMENTS.md,
// the verify skill and DESIGN.md itself names a "## §N" heading; every
// §N "Title" (a comma may follow the number) names a bold or italic lead,
// a line starting **Title or *Title, inside section N; every section names
// a test; and every Test, Fuzz and Benchmark name DESIGN.md mentions is
// declared in some _test.go file. CHANGES.md and ROADMAP.md are logs of
// what was, so their citations are not checked.
func TestDesignCitationsResolve(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(b)
	sections := map[string]string{}
	heads := regexp.MustCompile(`(?m)^## §(\d+) `).FindAllStringSubmatchIndex(design, -1)
	for i, h := range heads {
		end := len(design)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		sections[design[h[2]:h[3]]] = design[h[1]:end]
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md: found no ## §N headings")
	}

	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9]\w*`)
	declared := declaredTests(t)
	for n, body := range sections {
		if !testName.MatchString(body) {
			t.Errorf("DESIGN.md §%s names no test", n)
		}
	}
	for _, name := range testName.FindAllString(design, -1) {
		if !declared[name] {
			t.Errorf("DESIGN.md names %s, which no _test.go declares", name)
		}
	}

	files := []string{"Makefile", ".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md",
		".claude/skills/verify/SKILL.md", "DESIGN.md"}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A citation may wrap: join each line to the next, dropping the comment
	// marker that starts the continuation.
	wrap := regexp.MustCompile(`\s*\n\s*(?:(?://|#)\s*)?`)
	cite := regexp.MustCompile(`§(\d+)(?:,? "([^"]+)")?`)
	cited := 0
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(wrap.ReplaceAllString(string(b), " "), -1) {
			cited++
			body, ok := sections[m[1]]
			switch {
			case !ok:
				t.Errorf("%s cites DESIGN.md §%s, which has no ## §%s heading", file, m[1], m[1])
			case m[2] != "" && !regexp.MustCompile(`(?m)^(?:- )?\*{1,2}`+regexp.QuoteMeta(m[2])).MatchString(body):
				t.Errorf("%s cites DESIGN.md §%s %q, which is no **%s or *%s lead in that section", file, m[1], m[2], m[2], m[2])
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no § citation")
	}
}
