package experiments

import (
	"fmt"
	"strings"
	"testing"

	"sia/internal/engine"
	"sia/internal/plan"
	"sia/internal/predtest"
	"sia/internal/tpch"
	"sia/internal/workload"
)

func TestFig9Disk(t *testing.T) {
	cfg := smallCfg()
	cfg.SegmentRows = 128 // many segments even at the test scale
	rep, err := Fig9Disk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) == 0 || len(rep.Summaries) != 1 {
		t.Fatalf("records=%d summaries=%d", len(rep.Records), len(rep.Summaries))
	}
	s := rep.Summaries[0]
	if s.Rewritten == 0 {
		t.Fatal("no queries were rewritten; the experiment is vacuous")
	}
	if s.SegmentsPruned == 0 {
		t.Fatal("rewritten plans pruned no segments; zone maps never fired")
	}
	if s.BytesReadRw >= s.BytesReadOrig {
		t.Fatalf("rewrite read more bytes than the original: %d vs %d", s.BytesReadRw, s.BytesReadOrig)
	}
	for _, r := range rep.Records {
		if r.Original <= 0 || r.OrigScanned == 0 {
			t.Fatalf("incomplete original record: %+v", r)
		}
		if r.Rewritten && r.RewrittenTime <= 0 {
			t.Fatalf("incomplete rewritten record: %+v", r)
		}
	}
	// The streaming probe must show the full loop: fill, hit, append,
	// invalidate, miss.
	if rep.Probe.InvalidatedEntries == 0 || !rep.Probe.ResynthesisMiss {
		t.Fatalf("probe did not observe invalidation: %+v", rep.Probe)
	}
	if out := RenderDisk(rep); !strings.Contains(out, "streaming probe") {
		t.Fatalf("render:\n%s", out)
	}

	// Both table sources run the same loop: they must rewrite the same
	// queries and return the same number of rows for every query.
	mem, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem) != len(rep.Records) {
		t.Fatalf("memory has %d records, disk %d", len(mem), len(rep.Records))
	}
	for i, m := range mem {
		d := rep.Records[i]
		if m.QueryID != d.QueryID || m.Rewritten != d.Rewritten || m.OutputRows != d.OutputRows {
			t.Errorf("query %d: memory (rewritten %v, %d rows) vs disk query %d (rewritten %v, %d rows)",
				m.QueryID, m.Rewritten, m.OutputRows, d.QueryID, d.Rewritten, d.OutputRows)
		}
	}
}

// TestSameResultCatchesSameCountWrongRows plants a result with the right
// row count but one row replaced by a duplicate of another: a row-count
// check passes it, the harness's digest check must name the query.
func TestSameResultCatchesSameCountWrongRows(t *testing.T) {
	orders, _ := tpch.Generate(tpch.Config{ScaleFactor: 0.01})
	want := orders.Digest()
	sorted, err := sortByColumn(orders, "o_totalprice")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult("query 7: rewritten result", want, sorted); err != nil {
		t.Fatalf("reordered rows rejected: %v", err)
	}
	idx := make([]int, orders.NumRows())
	for i := range idx {
		idx[i] = i
	}
	idx[0] = 1
	wrong, err := engine.ReorderRows(orders, idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wrong.NumRows() != orders.NumRows() {
		t.Fatalf("planted result has %d rows, want %d", wrong.NumRows(), orders.NumRows())
	}
	err = sameResult("query 7: rewritten result", want, wrong)
	if err == nil || !strings.Contains(err.Error(), "query 7") {
		t.Fatalf("wrong rows with the right count: err = %v, want one naming query 7", err)
	}

	// The loop runs every rewrite through that check: an invalid
	// predicate that drops rows fails the query.
	o, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 0.05})
	cat := plan.NewCatalog()
	cat.Add(o)
	cat.Add(lineitem)
	q := workload.Generate(workload.Config{N: 1})[0]
	bad := rewriteInfo{pred: predtest.MustParse("l_shipdate < DATE '1992-03-01'", tpch.LineitemSchema())}
	_, err = fig9Query(q, bad, cat, cat, lineitem, 1)
	if name := fmt.Sprintf("query %d: rewritten result differs", q.ID); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("planted invalid rewrite: err = %v, want one naming %q", err, name)
	}
}

func TestMedian(t *testing.T) {
	if m := median(nil); m != 0 {
		t.Fatalf("median(nil) = %v", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}
