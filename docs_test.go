package hierdrl_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
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

// TestProductionCodeHasProductionCallers keeps production code to what
// production runs. It type-checks every non-test file of the module and of
// bench/ (the repository benchmark, a module of its own that counts as a
// caller), follows every reference from function to function, and fails on
// each function or method of the module that no non-test code reaches. The
// roots are the root package's exported API, the exported methods of the
// internal types it re-exports by alias, main and init, package-level
// initialisers, every method whose name an interface in the module declares
// (plus String and Error, which fmt and the error interface call), and
// productionRoots. A productionRoots entry that names no function, that
// non-test code reaches anyway, or whose needer no _test.go declares fails
// too.
func TestProductionCodeHasProductionCallers(t *testing.T) {
	// Without cgo the standard library type-checks from its pure-Go files
	// alone, with no C toolchain.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Join(".", dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix("hierdrl/"+filepath.ToSlash(filepath.Clean(dir)), "/.")
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "source", nil)
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		if files[path] == nil {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files[path], info)
		checked[path] = p
		return p, err
	}
	for path := range files {
		if _, err := imp(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	// The call graph: an edge from each function to every function it names,
	// and from the package-level initialisers (nil) to every function they
	// name.
	calls := map[*types.Func][]*types.Func{}
	decls := map[*types.Func]*ast.FuncDecl{}
	ifaceMethods := map[string]bool{"String": true, "Error": true}
	aliased := map[*types.Func]bool{}
	for path, fs := range files {
		for _, f := range fs {
			for _, d := range f.Decls {
				var from *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					from = info.Defs[fd.Name].(*types.Func)
					decls[from] = fd
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := info.Uses[n].(*types.Func); ok {
							calls[from] = append(calls[from], fn.Origin())
						}
					case *ast.InterfaceType:
						for _, m := range n.Methods.List {
							for _, name := range m.Names {
								ifaceMethods[name.Name] = true
							}
						}
					case *ast.TypeSpec:
						if path == "hierdrl" && n.Assign.IsValid() && n.Name.IsExported() {
							if named, ok := types.Unalias(info.TypeOf(n.Type)).(*types.Named); ok {
								ms := types.NewMethodSet(types.NewPointer(named))
								for i := 0; i < ms.Len(); i++ {
									aliased[ms.At(i).Obj().(*types.Func)] = true
								}
							}
						}
					}
					return true
				})
			}
		}
	}

	reached := map[*types.Func]bool{}
	var reach func(fn *types.Func)
	reach = func(fn *types.Func) {
		if !reached[fn] {
			reached[fn] = true
			for _, c := range calls[fn] {
				reach(c)
			}
		}
	}
	reach(nil)
	byName := map[string]*types.Func{}
	for fn := range decls {
		byName[funcName(fn)] = fn
		recv := fn.Type().(*types.Signature).Recv()
		switch {
		case fn.Name() == "main" || fn.Name() == "init",
			fn.Pkg().Path() == "hierdrl" && fn.Exported() && (recv == nil || recvNamed(recv).Obj().Exported()),
			aliased[fn] && fn.Exported(),
			recv != nil && ifaceMethods[fn.Name()]:
			reach(fn)
		}
	}
	if len(productionRoots) > 15 {
		t.Errorf("productionRoots has %d entries, want at most 15", len(productionRoots))
	}
	tests := declaredTests(t)
	for _, root := range productionRoots {
		fn, ok := byName[root.fn]
		switch {
		case !ok:
			t.Errorf("productionRoots names %s, which is no function", root.fn)
		case reached[fn]:
			t.Errorf("productionRoots names %s, which non-test code reaches: drop the entry", root.fn)
		case !tests[root.needer]:
			t.Errorf("productionRoots entry %s needs %s, which no _test.go declares", root.fn, root.needer)
		}
	}
	for _, root := range productionRoots {
		if fn, ok := byName[root.fn]; ok {
			reach(fn)
		}
	}
	var dead []string
	for fn, fd := range decls {
		if !reached[fn] && fn.Pkg().Path() != "hierdrl/bench" {
			dead = append(dead, fmt.Sprintf("%s: %s", fset.Position(fd.Pos()), funcName(fn)))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no non-test code reaches it", d)
	}
}

// productionRoots are the functions that stay in production code although
// no production code calls them, each for a role production cannot fill,
// with the test or benchmark that needs it. The functions only they reach
// (QNetwork.remoteFeature under Q, callClosure under Schedule) need no entry.
var productionRoots = []struct{ fn, role, needer string }{
	{"internal/lstm.Cell.Step", "reference: the recording step the inference and training paths are compared against", "TestStepInferMatchesStep"},
	{"internal/global.QNetwork.Q", "reference: one Q-value through the unbatched forward", "TestQNetworkGradCheck"},
	{"internal/nn.MLP.Infer", "reference: the allocating inference the workspace and batched paths are compared against", "TestMLPGradCheck"},
	{"internal/nn.Autoencoder.EncodeInfer", "reference: the encoder's allocating inference", "TestAutoencoderEncodeGradCheck"},
	{"internal/mat.KernelFamily", "seam: names the kernel family init selected", "TestKernelFamilyIsOneOfTwo"},
	{"internal/mat.ForEachKernelFamily", "seam: forces each kernel family the host supports", "TestGemm512MatchesScalarReference"},
	{"internal/lstm.SetRoundHook", "seam: holds a training round open or makes it panic", "TestRoundPanicReraisedOnJoin"},
	{"internal/sim.Simulator.Schedule", "test driver: a closure event, in the tests of five packages", "TestScheduleAndRunOrder"},
	{"internal/sim.Simulator.ScheduleAfter", "test driver: a closure event after a delay, in the tests of five packages", "TestScheduleAfter"},
	{"internal/sim.Simulator.RunAll", "test driver: drains a lane with a runaway guard, in the tests of five packages", "TestRunAllGuard"},
	{"internal/checkpoint.Codec.Payload", "test driver: a section's encoded bytes, in the tests of five packages", "TestEncMatchesReferenceAppender"},
	{"internal/global.QNetwork.MaxQBatch", "micro-benchmark driver: the call bench/'s global.maxq_batch32.us times", "BenchmarkQNetInferBatch"},
	{"internal/global.Agent.FreezePolicy", "reserved: ROADMAP item 1 gives it a caller or deletes it", "TestAgentFreezeStopsLearning"},
	{"internal/local.RLTimeout.FreezePolicy", "reserved: ROADMAP item 1 gives it a caller or deletes it", "TestRLTimeoutFreezePolicy"},
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvNamed is the named type of a method's receiver.
func recvNamed(recv *types.Var) *types.Named {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// funcName names fn by its package's path in the module, its receiver type
// and its name: internal/sim.Simulator.Run.
func funcName(fn *types.Func) string {
	s := strings.TrimPrefix(fn.Pkg().Path(), "hierdrl/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		s += recvNamed(recv).Obj().Name() + "."
	}
	return s + fn.Name()
}
