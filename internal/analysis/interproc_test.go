package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// findNode returns the call-graph node with the given qualified name.
func findNode(t *testing.T, prog *Program, name string) *FuncNode {
	t.Helper()
	for _, n := range prog.Nodes {
		if n.Name == name {
			return n
		}
	}
	for _, n := range prog.Nodes {
		t.Logf("  node %s", n.Name)
	}
	t.Fatalf("no node named %q", name)
	return nil
}

// edgeKinds collects the resolved targets of a node, keyed by edge kind.
func edgeTargets(n *FuncNode, kind EdgeKind) []string {
	var out []string
	for _, e := range n.Edges {
		if e.Kind != kind {
			continue
		}
		switch {
		case e.Callee != nil:
			out = append(out, e.Callee.Name)
		case e.Ext != nil:
			out = append(out, e.Ext.FullName())
		default:
			out = append(out, "<unresolved>")
		}
	}
	return out
}

func TestCallGraphEdgeKinds(t *testing.T) {
	pkgs := loadFixture(t, "callgraph")
	prog := BuildProgram(pkgs)

	total := findNode(t, prog, "cgfix/cg.Total")

	// CHA: the interface call resolves to both implementors, value and
	// pointer receiver.
	iface := edgeTargets(total, EdgeInterface)
	if len(iface) != 2 {
		t.Fatalf("interface edges = %v, want 2 (Square.Area and (*Rect).Area)", iface)
	}
	wantIface := map[string]bool{"cgfix/cg.Square.Area": true, "cgfix/cg.(*Rect).Area": true}
	for _, name := range iface {
		if !wantIface[name] {
			t.Errorf("unexpected CHA target %q", name)
		}
	}

	// op is assigned exactly once from a named function: funcvalue edge.
	if fv := edgeTargets(total, EdgeFuncValue); len(fv) != 1 || fv[0] != "cgfix/cg.add" {
		t.Errorf("funcvalue edges = %v, want [cgfix/cg.add]", fv)
	}

	// loose has its address taken, so the call through it is dynamic.
	if dyn := edgeTargets(total, EdgeDynamic); len(dyn) != 1 {
		t.Errorf("dynamic edges = %v, want exactly 1 (call through loose)", dyn)
	}

	// Make creates one literal, linked by a closure edge; the literal is a
	// node of its own whose Root is Make.
	mk := findNode(t, prog, "cgfix/cg.Make")
	cl := edgeTargets(mk, EdgeClosure)
	if len(cl) != 1 {
		t.Fatalf("closure edges = %v, want 1", cl)
	}
	lit := findNode(t, prog, cl[0])
	if lit.Lit == nil || lit.Encl != mk || lit.Root() != mk {
		t.Errorf("literal node %s not attributed to Make", lit.Name)
	}
}

func TestCallGraphAnnotations(t *testing.T) {
	pkgs := loadFixture(t, "allocbudget_good")
	prog := BuildProgram(pkgs)

	step := findNode(t, prog, "abgood/kernel.(*state).Step")
	if !step.Hot {
		t.Errorf("Step not marked hot")
	}
	setup := findNode(t, prog, "abgood/kernel.Setup")
	if setup.Hot {
		t.Errorf("Setup wrongly marked hot")
	}

	// Reachability: accumulate is in Step's cone, Setup is not.
	reach := prog.HotReachable()
	acc := findNode(t, prog, "abgood/kernel.(*state).accumulate")
	if reach[acc] != step {
		t.Errorf("accumulate's hot witness = %v, want Step", reach[acc])
	}
	if _, ok := reach[setup]; ok {
		t.Errorf("cold Setup reported hot-reachable")
	}
}

func allocCfg() *Config { return &Config{} }

func TestAllocBudgetGood(t *testing.T) {
	got := runOne(t, "allocbudget_good", allocCfg(), AllocBudget(allocCfg()))
	wantFindings(t, got, 0)
}

func TestAllocBudgetBad(t *testing.T) {
	got := runOne(t, "allocbudget_bad", allocCfg(), AllocBudget(allocCfg()))
	wantFindings(t, got, 16,
		"make",
		"map literal",
		"map assignment",
		"escapes to the heap",
		"interface call",
		"boxes",
		"string concatenation",
		"append",
		"go statement",
		"unresolved function value",
		"conversion",
		"fmt.Sprintf",
		"captures base",
	)
	// Every finding names its witness hot entry.
	for _, f := range got {
		if f.Analyzer != "alloc-budget" {
			t.Errorf("finding from %q, want alloc-budget", f.Analyzer)
		}
	}
}

// TestTerminalEdges pins the error-terminal rule: call sites inside panic
// arguments and non-nil-error returns are marked Terminal and do not extend
// hot reachability (an err.Error() in a panic message must not drag every
// error type's formatting code into the allocation budget), while memo
// reachability deliberately still follows them.
func TestTerminalEdges(t *testing.T) {
	pkgs := loadFixture(t, "allocbudget_good")
	prog := BuildProgram(pkgs)

	validate := findNode(t, prog, "abgood/kernel.Validate")
	errFn := findNode(t, prog, "abgood/kernel.(*parseError).Error")

	terminal := 0
	for _, e := range validate.Edges {
		if e.Terminal {
			terminal++
		}
	}
	if terminal == 0 {
		t.Fatalf("Validate has no terminal edges; panic((&parseError{...}).Error()) should produce one")
	}

	hot := prog.HotReachable()
	if _, ok := hot[validate]; !ok {
		t.Errorf("Validate is not hot-reachable despite its annotation")
	}
	if _, ok := hot[errFn]; ok {
		t.Errorf("(*parseError).Error is hot-reachable; terminal edges must not extend the hot cone")
	}

	// The non-hot traversal used by memo-safe still crosses terminal edges.
	all := prog.ReachableFrom([]*FuncNode{validate})
	if _, ok := all[errFn]; !ok {
		t.Errorf("(*parseError).Error not reachable via ReachableFrom; memo analysis must follow failure paths")
	}
}

func TestMemoSafeGood(t *testing.T) {
	got := runOne(t, "memosafe_good", allocCfg(), MemoSafe(allocCfg()))
	wantFindings(t, got, 0)
}

func TestMemoSafeBad(t *testing.T) {
	got := runOne(t, "memosafe_bad", allocCfg(), MemoSafe(allocCfg()))
	wantFindings(t, got, 5,
		"Touch",    // global map write
		"Bump",     // parameter mutation
		"Stamp",    // time.Now
		"Keys",     // map iteration order
		"Indirect", // mutation via helper summary
	)
}

func TestMemoReport(t *testing.T) {
	pkgs := loadFixture(t, "memosafe_bad")
	report := BuildMemoReport(pkgs, "")
	if report.Tool != "sialint" {
		t.Errorf("tool = %q", report.Tool)
	}
	if len(report.Entries) != 5 {
		t.Fatalf("got %d entries, want 5", len(report.Entries))
	}
	for _, e := range report.Entries {
		if e.Certified {
			t.Errorf("%s certified despite violations", e.Function)
		}
		if len(e.Violations) == 0 {
			t.Errorf("%s has no violations in report", e.Function)
		}
		if e.Reachable < 1 {
			t.Errorf("%s reachable = %d", e.Function, e.Reachable)
		}
	}

	good := loadFixture(t, "memosafe_good")
	greport := BuildMemoReport(good, "")
	if len(greport.Entries) != 3 {
		t.Fatalf("good fixture: got %d entries, want 3", len(greport.Entries))
	}
	justs := 0
	for _, e := range greport.Entries {
		if !e.Certified {
			t.Errorf("%s not certified: %+v", e.Function, e.Violations)
		}
		justs += len(e.Justifications)
	}
	if justs != 1 {
		t.Errorf("good fixture justification count = %d, want 1 (Normalize's counter)", justs)
	}

	// The writer emits valid JSON.
	var buf bytes.Buffer
	if err := WriteMemoReport(&buf, pkgs, ""); err != nil {
		t.Fatal(err)
	}
	var round MemoReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
}

// TestSARIFUTF16Columns pins the column convention of SARIF output: per
// SARIF 2.1.0 §3.30.2 startColumn counts UTF-16 code units, so findings
// after multi-byte runes must shift left of their byte columns.
func TestSARIFUTF16Columns(t *testing.T) {
	cfg := allocCfg()
	pkgs := loadFixture(t, "sarif_unicode")
	findings := Run(pkgs, []*Analyzer{AllocBudget(cfg)}, cfg)
	if len(findings) != 2 {
		for _, f := range findings {
			t.Logf("  %s: %s", f.Pos, f.Message)
		}
		t.Fatalf("got %d findings, want 2", len(findings))
	}

	base, err := filepath.Abs(filepath.Join("testdata", "sarif_unicode"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, []*Analyzer{AllocBudget(cfg)}, base); err != nil {
		t.Fatal(err)
	}

	var log struct {
		Runs []struct {
			Results []struct {
				Locations []struct {
					PhysicalLocation struct {
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	regions := log.Runs[0].Results
	if len(regions) != 2 {
		t.Fatalf("got %d results", len(regions))
	}
	// Line 10: `\tπ := make(...)`. make sits at byte column 8 (tab=1, π=2
	// bytes), but π is a single UTF-16 unit, so the SARIF column is 7.
	r0 := regions[0].Locations[0].PhysicalLocation.Region
	if r0.StartLine != 10 || r0.StartColumn != 7 {
		t.Errorf("finding 0 at %d:%d, want 10:7 (UTF-16 units)", r0.StartLine, r0.StartColumn)
	}
	// Line 11: `\t𝛽 := append(...)`. 𝛽 is 4 UTF-8 bytes (byte column 10)
	// but a surrogate pair, i.e. 2 UTF-16 units: SARIF column 8.
	r1 := regions[1].Locations[0].PhysicalLocation.Region
	if r1.StartLine != 11 || r1.StartColumn != 8 {
		t.Errorf("finding 1 at %d:%d, want 11:8 (UTF-16 units)", r1.StartLine, r1.StartColumn)
	}

	// Byte-identical golden: regenerate with UPDATE_GOLDEN=1 go test.
	golden := filepath.Join("testdata", "sarif_unicode.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output diverged from golden\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestParallelOutputByteIdentical is the determinism regression for the
// interprocedural analyzers: the rendered JSON from RunParallel must be
// byte-identical run-to-run and to the serial driver, at any worker count.
// The bad fixture spans two packages whose findings interleave, so any
// ordering instability in the merge shows up here.
func TestParallelOutputByteIdentical(t *testing.T) {
	cfg := allocCfg()
	pkgs := loadFixture(t, "allocbudget_bad")
	analyzers := []*Analyzer{AllocBudget(cfg), MemoSafe(cfg)}

	render := func(fs []Finding) []byte {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, fs, ""); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := render(Run(pkgs, analyzers, cfg))
	for _, workers := range []int{0, 1, 2, 8} {
		first := render(RunParallel(pkgs, analyzers, cfg, workers))
		second := render(RunParallel(pkgs, analyzers, cfg, workers))
		if !bytes.Equal(first, second) {
			t.Errorf("workers=%d: two parallel runs differ\nfirst:\n%s\nsecond:\n%s", workers, first, second)
		}
		if !bytes.Equal(first, serial) {
			t.Errorf("workers=%d: parallel differs from serial\nparallel:\n%s\nserial:\n%s", workers, first, serial)
		}
	}
}
