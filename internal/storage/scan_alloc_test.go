package storage

import (
	"runtime"
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// TestScanFilterCopiesOnce pins the scan's allocation budget. The bytes
// one ScanFilter allocates (the runtime.MemStats.TotalAlloc delta,
// averaged over repeated scans) must fit in the page buffers, the decoded
// columns, the selection scratch (bitmap and row indices) and one copy of
// the surviving rows, plus a fixed allowance per segment and for the
// output, plus half a survivor copy of margin against allocator and
// toolchain differences. A scan that materializes the survivors twice — a
// filtered table per segment, then their concatenation — exceeds it by
// half a survivor copy.
func TestScanFilterCopiesOnce(t *testing.T) {
	const segRows, nSegs, scans = 8192, 6, 8
	full := buildTable(t, segRows*nSegs, 11)
	st, err := Open(t.TempDir(), "t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < full.NumRows(); lo += segRows {
		if err := st.AppendRange(full, lo, lo+segRows); err != nil {
			t.Fatal(err)
		}
	}
	// d is uniform over [-2500, 2500): d < 0 keeps about half the rows of
	// every segment, so no segment is pruned.
	p := predicate.Cmp(predicate.CmpLT, predicate.Col("d", predicate.TypeDate), predicate.IntConst(0))
	kept := engine.FilterPar(full, p, 1).NumRows()

	rowBytes := 0 // one row across the decoded columns: values + NULL flags
	for _, c := range testSchema().Columns() {
		rowBytes += 8
		if !c.NotNull {
			rowBytes++
		}
	}
	// Allowance per segment and once for the output: the allocator rounds
	// large slices up to whole 8 KiB pages, plus the file handle and the
	// table and column headers.
	const slack = 24 << 10
	budget := rowBytes*kept + rowBytes*kept/2 + 8*kept + slack
	for _, seg := range st.segs {
		l := seg.meta.layout
		budget += int(l.footerOff-l.pages[0].off) + rowBytes*l.rows + l.rows + slack
	}

	if _, err := st.ScanFilter(p, 1); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		got, err := st.ScanFilter(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != kept {
			t.Fatalf("scan kept %d rows, want %d", got.NumRows(), kept)
		}
	}
	runtime.ReadMemStats(&after)
	perScan := int(after.TotalAlloc-before.TotalAlloc) / scans
	t.Logf("%d bytes allocated per scan, budget %d (%d of %d rows kept)", perScan, budget, kept, full.NumRows())
	if perScan > budget {
		t.Fatalf("ScanFilter allocates %d bytes per scan, over the copy-once budget of %d", perScan, budget)
	}
}
