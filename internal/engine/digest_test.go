package engine

import (
	"testing"

	"sia/internal/predicate"
)

func TestDigest(t *testing.T) {
	s := predicate.NewSchema(
		predicate.Column{Name: "id", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "x", Type: predicate.TypeInteger},
		predicate.Column{Name: "r", Type: predicate.TypeDouble},
	)
	tab := NewTable("t", s)
	for i := int64(0); i < 50; i++ {
		x := predicate.IntVal(i % 7)
		if i%5 == 0 {
			x = predicate.NullValue()
		}
		tab.AppendRow(predicate.IntVal(i), x, predicate.RealVal(float64(i)/4))
	}
	want := tab.Digest()
	if want.Rows != 50 {
		t.Fatalf("Rows = %d", want.Rows)
	}
	gather := func(rows []int) *Table {
		t.Helper()
		out, err := ReorderRows(tab, rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	identity := func() []int {
		idx := make([]int, tab.NumRows())
		for i := range idx {
			idx[i] = i
		}
		return idx
	}

	reversed := identity()
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	if got := gather(reversed).Digest(); got != want {
		t.Errorf("row order changed the digest: %+v vs %+v", got, want)
	}

	swapped, err := ProjectPar(tab, []string{"r", "x", "id"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := swapped.Digest(); got != want {
		t.Errorf("column order changed the digest: %+v vs %+v", got, want)
	}

	dup := identity()
	dup[0] = 1 // row 1 twice, row 0 gone: same count, different multiset
	if got := gather(dup).Digest(); got.Rows != want.Rows || got == want {
		t.Errorf("a row replaced by a duplicate was not caught: %+v vs %+v", got, want)
	}

	if got := gather(identity()[1:]).Digest(); got == want {
		t.Errorf("a dropped row was not caught: %+v", got)
	}

	one := func(v predicate.Value) Digest {
		n := NewTable("n", predicate.NewSchema(predicate.Column{Name: "x", Type: predicate.TypeInteger}))
		n.AppendRow(v)
		return n.Digest()
	}
	if one(predicate.NullValue()) == one(predicate.IntVal(0)) {
		t.Error("NULL and 0 give the same digest")
	}
}
