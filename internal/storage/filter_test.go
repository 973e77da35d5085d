package storage

import (
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
	"sia/internal/predtest"
)

// TestFilterMatchesEval pins both interpretations of a compiled predicate
// to row-by-row predicate.Eval: the engine's filter selects exactly the
// TRUE rows, and a segment whose zone maps say no row may be TRUE has no
// TRUE row. It also pins the multi-part filter over the decoded segments
// (each with its own maxAbs, nullable and DOUBLE columns, all-NULL
// segments) to the one-table filter over the whole table.
func TestFilterMatchesEval(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		checkFilterMatchesEval(t, seed)
	}
}

// FuzzFilterMatchesEval explores the same property from fuzzed seeds.
func FuzzFilterMatchesEval(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkFilterMatchesEval)
}

// checkFilterMatchesEval draws one table and a few predicates from seed.
// Every 25th seed draws a table larger than two morsels, so the parallel
// filter really runs on several workers.
func checkFilterMatchesEval(t *testing.T, seed int64) {
	const segRows = 16
	g := predtest.NewGen(seed)
	n := 150
	if seed%25 == 0 {
		n = 9000
	}
	tbl := engine.NewTable("t", g.Schema())
	for _, row := range g.Rows(n) {
		tbl.AppendRow(row...)
	}
	var segs []*Segment
	var parts []*engine.Table
	for lo := 0; lo < n; lo += segRows {
		buf, _, err := encodeSegment(tbl, lo, min(lo+segRows, n))
		if err != nil {
			t.Fatal(err)
		}
		meta, err := parseSegment(buf)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, &Segment{meta: meta})
		part, err := DecodeSegment("t", buf)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	for _, par := range []int{1, 4} {
		if all := engine.FilterTables("t", tbl.Schema(), parts, nil, par); !engine.TablesEqual(tbl, all) {
			t.Fatalf("seed %d par %d: unfiltered FilterTables over %d segments differs from the table", seed, par, len(parts))
		}
	}
	want := make([]bool, n)
	for i := 0; i < 4; i++ {
		p := g.Predicate(3)
		for row := range want {
			want[row] = predicate.Satisfies(p, tbl.Tuple(row))
		}
		for _, par := range []int{1, 4} {
			sel := engine.SelectionPar(tbl, p, par)
			for row, ok := range sel {
				if ok != want[row] {
					t.Fatalf("seed %d par %d: %s on row %d %v: filter %v, eval %v",
						seed, par, p, row, tbl.Tuple(row), ok, want[row])
				}
			}
		}
		prog := predicate.Compile(p)
		whole := engine.FilterPar(tbl, p, 1)
		for _, par := range []int{1, 4} {
			if got := engine.FilterTables("t", tbl.Schema(), parts, prog, par); !engine.TablesEqual(whole, got) {
				t.Fatalf("seed %d par %d: %s: FilterTables over %d segments kept %d rows, FilterPar %d",
					seed, par, p, len(parts), got.NumRows(), whole.NumRows())
			}
		}
		for s, seg := range segs {
			if seg.CanMatch(prog) {
				continue
			}
			for row := s * segRows; row < min((s+1)*segRows, n); row++ {
				if want[row] {
					t.Fatalf("seed %d: %s pruned segment %d, but row %d %v is TRUE",
						seed, p, s, row, tbl.Tuple(row))
				}
			}
		}
	}
}
