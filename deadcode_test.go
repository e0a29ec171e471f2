package rsin

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// oracles is the allow-list of TestNoDeadCode: identifiers declared in a
// non-test file under internal/ that no non-test file of the module uses,
// kept on purpose. Each is an exact reference a test checks other code
// against, a fixture other packages' tests share, or a paper result
// DESIGN.md or EXPERIMENTS.md says it reproduces; its reason names the
// tests that use it. A key is package.Ident or package.Type.Method, the
// package being its directory under internal/.
var oracles = map[string]string{
	// Exact optima the service's solvers are differentially tested against.
	"core.BruteForceMax":           "§II's exact optimum by enumeration: TestOptimalMatchesBruteForce, TestDifferentialSchedulersVsBrute, TestHeteroMatchesBruteForce",
	"core.BruteForceBestValue":     "exact best (count, value) for priorities and preferences: TestPriorityDifferentialTraces, TestExchangeDifferentialTraces, TestMinCostIncrementalCertified",
	"core.WeightedValue":           "the value BruteForceBestValue maximises, read off a mapping: TestPriorityDifferentialTraces, TestDifferentialPricedHeteroVsBrute",
	"core.VerifyMinCost":           "min-cost certificate by an independent engine: TestVerifyMinCost",
	"matching.NewGraph":            "Hopcroft–Karp, the crossbar optimality oracle (DESIGN.md §4): TestCrossbarMatchesHopcroftKarp",
	"matching.Graph.AddEdge":       "Hopcroft–Karp input: TestCrossbarMatchesHopcroftKarp",
	"matching.HopcroftKarp":        "the crossbar optimality oracle: TestCrossbarMatchesHopcroftKarp, TestOptimalMatchesBruteForce",
	"matching.Verify":              "König vertex-cover certificate of a matching: TestHopcroftKarpMatchesBruteForce",
	"maxflow.LayeredNetwork":       "Theorem 4 and E8, Dinic's layered network: TestTheorem4LayeredNetworkMatchesDinic, TestLayeredNetworkFig3",
	"graph.Network.Clone":          "one network for several engines: TestDifferentialFlowEngines, TestMinCostIncrementalCertified",
	"graph.Network.AddNode":        "a second sink for the restricted-topology LP: TestRestrictedTopologyIntegrality",
	"graph.Network.DecomposePaths": "Theorem 2's flow decomposition into circuits: TestUnitCapacityDecomposition",

	// Analytic models and paper results validated against the simulators.
	"experiments.ExactBlocking": "exact E4/E5 blocking by enumeration (DESIGN.md §5): TestExactBlockingAgreesWithMonteCarlo",
	"queueing.ErlangB":          "Erlang-B loss at the validation point: TestSimMatchesAnalyticAtLightLoad",
	"queueing.PatelAcceptance":  "Patel's delta-network acceptance: TestPatelMatchesUnbufferedSimulation",
	"queueing.Utilization":      "M/M/c utilization the simulator must match (EXPERIMENTS.md): TestLightLoadUtilizationMatchesTheory",
	"token.BuildNSRequestLogic": "§IV-B3's gate-level switchbox and its gate count: TestGateCountIsLow, TestGateLogicMatchesBehavioralRules",
	"token.SigRegOut0":          "§IV-B3 gate input, read by the gate tests: TestGateLogicMatchesBehavioralRules, TestGateLogicAgreesWithSimulatedEmissions",
	"token.SigRegOut1":          "§IV-B3 gate input, read by the gate tests: TestGateLogicMatchesBehavioralRules",
	"placement.OptimizeCounts":  "§II's deferred type-count half (DESIGN.md §4): TestOptimizeCountsTracksDemand",
	"topology.RoutePermutation": "Benes rearrangeability by the looping algorithm (DESIGN.md §7): TestLoopingRoutesAllPermutations",
	"topology.ADM":              "§II's redundant-path fabric: TestADMRedundantPaths, TestADMScheduling",

	// Fault-state readers the fault tests recount against.
	"topology.Network.LinkFaulted":  "TestFaultOpsRangeAndIdempotence, TestDifferentialFaultMasking",
	"topology.Network.BoxFaulted":   "TestTypedPlannerDeterministic, TestDifferentialFaultMasking",
	"topology.Network.FaultedLinks": "TestFaultOpsRangeAndIdempotence, FuzzHeteroBound",
	"system.System.OpenLinks":       "the System's link words after each fault batch: FuzzShardScript",

	// Fixtures shared by several packages' tests.
	"testutil.RandomNetwork":     "random flow networks: TestAlgorithmsAgreeOnRandomNetworks, TestLPMaxFlowMatchesDinic, TestRoundTrip",
	"workload.AdversarialTyped":  "typed epochs that defeat the fast path: TestDifferentialMulticommodityVsOracle, FuzzHeteroBound, TestGrantingEpochRunsOneCycle",
	"faultinject.Injector.Calls": "scripts the next solver call to fail: TestShardRecoversFromCycleFault, TestFailAt",
}

// TestNoDeadCode is the census of code no program runs: every
// package-level identifier and method declared in a non-test file under
// internal/ must be used by some non-test file of the module (internal/,
// cmd/, bench/, examples/ and the facade), or be named in oracles with the
// tests that use it. An entry that is no longer declared, or that non-test
// code now uses, fails too: the list only shrinks, and an oracle cannot
// quietly become service code.
func TestNoDeadCode(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, ".", "rsin")
	if err != nil {
		t.Fatal(err)
	}
	declared, unused, err := census(fset, pkgs, "rsin/internal/")
	if err != nil {
		t.Fatal(err)
	}
	// Did-not-exercise: a census that declares nothing checks nothing.
	if len(declared) < 500 {
		t.Fatalf("census found only %d declarations under internal/", len(declared))
	}
	for _, p := range auditOracles(declared, unused, oracles) {
		t.Error(p)
	}
	funcs, err := testFuncNames(".")
	if err != nil {
		t.Fatal(err)
	}
	namePat := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	for name, why := range oracles {
		cited := namePat.FindAllString(why, -1)
		if len(cited) == 0 {
			t.Errorf("oracles: %s names no test that uses it", name)
		}
		for _, c := range cited {
			if !slices.Contains(funcs, c) {
				t.Errorf("oracles: %s cites %s, which is not a test function", name, c)
			}
		}
	}
}

// TestCensusCatches runs the census and the allow-list audit on a
// synthetic module: an unused exported function is reported, methods the
// standard library or a used module interface calls are not, and an
// allow-list entry that is gone, or that non-test code has started to
// call, is stale.
func TestCensusCatches(t *testing.T) {
	lib := `package a

type T struct{}

func (T) String() string { return "t" }

type I interface{ M() }

type U struct{}

func (U) M() {}

func Unused()         {}
func Oracle() int     { return 1 }
func Service() int    { return 2 }
func NewI() I         { return U{} }
`
	run := func(main string) (declared, unused map[string]string) {
		t.Helper()
		fset := token.NewFileSet()
		pkgs := map[string][]*ast.File{}
		for path, src := range map[string]string{"m/internal/a": lib, "m/cmd/x": main} {
			f, err := parser.ParseFile(fset, path+"/x.go", src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			pkgs[path] = []*ast.File{f}
		}
		declared, unused, err := census(fset, pkgs, "m/internal/")
		if err != nil {
			t.Fatal(err)
		}
		return declared, unused
	}
	declared, unused := run(`package main

import "m/internal/a"

func main() { _ = a.Service(); a.NewI().M() }
`)
	for _, name := range []string{"a.Unused", "a.Oracle", "a.T"} {
		if _, ok := unused[name]; !ok {
			t.Errorf("%s is unused but not reported (unused: %v)", name, unused)
		}
	}
	for _, name := range []string{"a.T.String", "a.U.M", "a.I.M", "a.Service"} {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s is not in the census", name)
		}
		if _, ok := unused[name]; ok {
			t.Errorf("%s is used but reported", name)
		}
	}

	allow := map[string]string{"a.Oracle": "oracle", "a.T": "fixture", "a.Gone": "deleted"}
	problems := strings.Join(auditOracles(declared, unused, allow), "\n")
	if !strings.Contains(problems, "a.Unused is used by no non-test file") {
		t.Errorf("unlisted unused function not reported:\n%s", problems)
	}
	if !strings.Contains(problems, "a.Gone, which is no longer declared") {
		t.Errorf("stale entry of a deleted identifier not reported:\n%s", problems)
	}
	if strings.Contains(problems, "a.Oracle") {
		t.Errorf("listed oracle reported:\n%s", problems)
	}

	declared, unused = run(`package main

import "m/internal/a"

func main() { _ = a.Service() + a.Oracle(); _ = a.T{} }
`)
	problems = strings.Join(auditOracles(declared, unused, allow), "\n")
	if !strings.Contains(problems, "a.Oracle, which non-test code now uses") {
		t.Errorf("oracle with a non-test caller not reported:\n%s", problems)
	}
}

// parseModule parses the non-test .go files of every package under root,
// skipping dot directories and testdata, keyed by import path.
func parseModule(fset *token.FileSet, root, module string) (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		ip := module
		if dir != "." {
			ip += "/" + filepath.ToSlash(dir)
		}
		pkgs[ip] = append(pkgs[ip], f)
		return nil
	})
	return pkgs, err
}

// census type-checks pkgs (import path → files; imports outside pkgs are
// the standard library's) and returns the package-level identifiers and
// methods declared in packages whose path starts with scope, and those of
// them no file in pkgs uses, each name mapped to its position. A method
// also counts as used when its type implements a standard interface the
// library calls for it (fmt.Stringer, error, Unwrap() error,
// heap.Interface), or an interface of pkgs whose method is used.
func census(fset *token.FileSet, pkgs map[string][]*ast.File, scope string) (declared, unused map[string]string, err error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		files, ok := pkgs[path]
		if !ok {
			return std.Import(path)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp(p); err != nil {
			return nil, nil, err
		}
	}

	// A method's receiver names its own type: that is no use of the type.
	receivers := map[*ast.Ident]bool{}
	for _, files := range pkgs {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if !receivers[id] {
			used[origin(obj)] = true
		}
	}
	for _, sel := range info.Selections {
		used[origin(sel.Obj())] = true
	}

	// Interfaces whose used methods stand for their implementations'.
	var ifaces []*types.Interface
	for _, p := range checked {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	stdIfaces := []*types.Interface{
		errType.Underlying().(*types.Interface),
		stdInterface("String", types.Typ[types.String]),
		stdInterface("Unwrap", errType),
	}
	if heap, err := std.Import("container/heap"); err == nil {
		stdIfaces = append(stdIfaces, heap.Scope().Lookup("Interface").Type().Underlying().(*types.Interface))
	}
	implements := func(t types.Type, it *types.Interface) bool {
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}

	declared, unused = map[string]string{}, map[string]string{}
	record := func(p *types.Package, name string, obj types.Object, isUsed bool) {
		key := strings.TrimPrefix(p.Path(), scope) + "." + name
		pos := fset.Position(obj.Pos())
		where := fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
		declared[key] = where
		if !isUsed {
			unused[key] = where
		}
	}
	for _, path := range paths {
		p := checked[path]
		if !strings.HasPrefix(path, scope) {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if name == "_" || name == "init" || name == "main" {
				continue
			}
			record(p, name, obj, used[obj])
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					m := it.ExplicitMethod(i)
					record(p, name+"."+m.Name(), m, used[m])
				}
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				isUsed := used[m]
				for _, it := range stdIfaces {
					if !isUsed && implements(named, it) && hasMethod(it, m.Name()) {
						isUsed = true
					}
				}
				for _, it := range ifaces {
					if isUsed || !implements(named, it) {
						continue
					}
					for j := 0; j < it.NumMethods(); j++ {
						if im := it.Method(j); im.Name() == m.Name() && used[im] {
							isUsed = true
						}
					}
				}
				record(p, name+"."+m.Name(), m, isUsed)
			}
		}
	}
	return declared, unused, nil
}

// auditOracles checks the census against the allow-list: every unused
// identifier must be listed, and every listed one still declared and still
// unused.
func auditOracles(declared, unused, allow map[string]string) []string {
	var problems []string
	for name, where := range unused {
		if _, ok := allow[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is used by no non-test file; delete it, move it into a _test.go file, or list it in oracles with its reason", where, name))
		}
	}
	for name := range allow {
		if _, ok := declared[name]; !ok {
			problems = append(problems, fmt.Sprintf("oracles lists %s, which is no longer declared; drop the entry", name))
		} else if _, ok := unused[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: oracles lists %s, which non-test code now uses; drop the entry", declared[name], name))
		}
	}
	sort.Strings(problems)
	return problems
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func stdInterface(method string, result types.Type) *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
	it := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, method, sig)}, nil)
	return it.Complete()
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
