package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
	"sia/internal/tpch"
)

type contractLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runToy runs one workload at toy size and returns the decoded result and
// report lines.
func runToy(t *testing.T, workload string, trace int, extra ...string) (contractLine, map[string]any) {
	t.Helper()
	args := append([]string{"-workload", workload, "-seed", "3", "-seconds", "1", "-toy",
		"-trace", []string{"0", "1"}[trace], "-out", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want report and result lines, got %q", workload, stdout.String())
	}
	var res contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	var report map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &report); err != nil {
		t.Fatalf("%s: report line: %v", workload, err)
	}
	return res, report
}

func buildSiad(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "siad")
	if out, err := exec.Command("go", "build", "-o", bin, "sia/cmd/siad").CombinedOutput(); err != nil {
		t.Fatalf("build siad: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsEmitEveryMetric runs every workload at toy size, untraced
// and traced, and checks that each catalog metric of the mode is emitted
// with its unit, whether or not the workload exercises its layer, and that
// no operation failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	siad := buildSiad(t)
	for name := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, _ := runToy(t, name, trace, "-siad", siad)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := metricsOf(trace == 1)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil {
					t.Errorf("%s trace=%d: metric %s missing", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestTracingKeepsCacheHits guards against tracing changing behaviour: a
// tracer handed to synthesis would make every lookup uncacheable, so the
// traced query run must hit the cache exactly as the untraced one does.
func TestTracingKeepsCacheHits(t *testing.T) {
	_, plain := runToy(t, "query", 0)
	_, traced := runToy(t, "query", 1)
	a := plain["info"].(map[string]any)["cache_hit_ratio"]
	b := traced["info"].(map[string]any)["cache_hit_ratio"]
	if a != b || a != 1.0 {
		t.Fatalf("cache hit ratio untraced %v, traced %v; want both 1", a, b)
	}
}

func toyTable(t *testing.T) *engine.Table {
	t.Helper()
	_, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 0.05, Seed: 1})
	return lineitem
}

func TestDigestIgnoresOrderAndCatchesDroppedRow(t *testing.T) {
	tab := toyTable(t)
	n := tab.NumRows()
	rev, all, drop := make([]int, n), make([]int, n), make([]int, 0, n)
	for i := 0; i < n; i++ {
		rev[i], all[i] = n-1-i, i
		if i != n/2 {
			drop = append(drop, i)
		}
	}
	dup := append(append([]int(nil), drop...), drop[0]) // same count, one row doubled
	d := tableDigest(tab)
	for _, c := range []struct {
		name string
		idx  []int
		same bool
	}{{"reversed", rev, true}, {"copy", all, true}, {"row dropped", drop, false}, {"row replaced by a duplicate", dup, false}} {
		other, err := engine.ReorderRows(tab, c.idx, 1)
		if err != nil {
			t.Fatal(err)
		}
		err = sameDigests("q", []string{"a", "b"}, []digest{d, tableDigest(other)})
		if (err == nil) != c.same {
			t.Errorf("%s: sameDigests error = %v, want same=%v", c.name, err, c.same)
		}
	}
}

func TestValidityCheckCatchesRefutedPredicate(t *testing.T) {
	sample, err := newValiditySample(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	schema := tpch.JoinSchema()
	parse := func(s string) predicate.Predicate {
		p, err := predicate.Parse(s, schema)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Every TPC-H row ships after its order date.
	p := parse("l_shipdate > o_orderdate AND o_orderdate > DATE '1900-01-01'")
	if err := sample.check(p, parse("l_shipdate > DATE '1900-01-02'")); err != nil {
		t.Errorf("valid p1 rejected: %v", err)
	}
	if err := sample.check(p, parse("l_shipdate < DATE '1900-01-02'")); err == nil {
		t.Error("p1 refuted by every sample row was accepted")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "plan.execute", Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: "storage.scan", Start: 20, End: 50},
		{ID: 4, Parent: 2, Op: 1, Name: "storage.scan", Start: 40, End: 60},
	}
	got := selfTimes(spans)
	if got["bench"] != 20 || got["plan"] != 40 || got["storage"] != 50 {
		t.Fatalf("self times %v, want bench 20, plan 40, storage 50", got)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and README.md in
// step with the metrics the code emits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s not implemented", w.Name)
		}
	}
	listed := 0
	for _, group := range [][]metricDef{b.EndToEnd, b.PerLayer} {
		for _, m := range group {
			listed++
			c, ok := lookupMetric(m.Name)
			if !ok || c.Unit != m.Unit || c.Better != m.Better || c.Bound != m.Bound || c.Layer != (m.Bound == 0) {
				t.Errorf("BENCHMARK.json %+v does not match the catalog %+v", m, c)
			}
		}
	}
	if listed != len(catalog) {
		t.Errorf("BENCHMARK.json lists %d metrics, catalog has %d", listed, len(catalog))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), catalogMarkdown()) {
		t.Errorf("README.md metric tables are stale; they should read:\n%s", catalogMarkdown())
	}
}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// TestClimbLadderBracketsCapacity checks the ladder search against a fake
// cluster whose capacity lies at a known rung, and the two ways it can stop
// short of bracketing it: the ladder's time runs out, or the top rung
// passes.
func TestClimbLadderBracketsCapacity(t *testing.T) {
	for _, capacity := range []int{0, 1, 7, 8, 9, 23, 63} {
		tried := 0
		best, bracketed := climbLadder(64, 8, func(k int) (bool, bool) {
			tried++
			return k <= capacity, true
		})
		if best != capacity || !bracketed {
			t.Errorf("capacity at rung %d: best %d bracketed %v", capacity, best, bracketed)
		}
		if tried > capacity/8+5 {
			t.Errorf("capacity at rung %d: %d rungs tried", capacity, tried)
		}
	}
	budget := 3
	best, bracketed := climbLadder(64, 8, func(k int) (bool, bool) {
		if budget == 0 {
			return false, false
		}
		budget--
		return true, true
	})
	if best != 24 || bracketed {
		t.Errorf("out of time: best %d bracketed %v, want 24 false", best, bracketed)
	}
	best, bracketed = climbLadder(20, 8, func(k int) (bool, bool) { return true, true })
	if best != 20 || bracketed {
		t.Errorf("top rung passed: best %d bracketed %v, want 20 false", best, bracketed)
	}
}
