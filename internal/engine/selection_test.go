package engine

import (
	"math/rand"
	"testing"

	"sia/internal/predicate"
	"sia/internal/predtest"
)

func TestSelectionMatchesEvalDifferential(t *testing.T) {
	// Property: the compiled filter's bitmap equals row-at-a-time 3VL
	// evaluation, serially and in parallel, for hand-picked shapes that
	// take the vector kernels (including OR and NOT, which the compiler
	// keeps there) and shapes that take the residual path (non-linear).
	r := rand.New(rand.NewSource(99))
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "c", Type: predicate.TypeInteger, NotNull: true},
	)
	tab := NewTable("t", s)
	for i := 0; i < 500; i++ {
		tab.AppendRow(
			predicate.IntVal(int64(r.Intn(61)-30)),
			predicate.IntVal(int64(r.Intn(61)-30)),
			predicate.IntVal(int64(r.Intn(61)-30)),
		)
	}
	exprs := []string{
		// Vectorized shapes.
		"a < 5",
		"a >= -3",
		"a - b < 7",
		"b - a <= 0",
		"2*a - 3*b + c < 10",
		"a = b",
		"a <> c",
		"a - b < 7 AND c > 0 AND a <= 20",
		"(a + b) / 2 < 4",
		"a < 5 OR b > 10",
		"NOT (a - b < 7)",
		"a < 5 AND (b > 0 OR c > 0)",
		// Residual shapes.
		"a * b > 0",
		"a < 5 AND (b > 0 OR c * c > 100)",
	}
	for _, src := range exprs {
		p := predtest.MustParse(src, s)
		for _, par := range []int{1, 4} {
			sel := SelectionPar(tab, p, par)
			for row := 0; row < tab.NumRows(); row++ {
				want := predicate.Eval(p, tab.Tuple(row)) == predicate.True
				if sel[row] != want {
					t.Fatalf("%s par %d row %d (%v): bitmap %v, eval %v", src, par, row, tab.Tuple(row), sel[row], want)
				}
			}
		}
	}
}

func TestSelectionNullableFallsBack(t *testing.T) {
	s := predicate.NewSchema(predicate.Column{Name: "x", Type: predicate.TypeInteger})
	tab := NewTable("n", s)
	tab.AppendRow(predicate.IntVal(5))
	tab.AppendRow(predicate.NullValue())
	tab.AppendRow(predicate.IntVal(-5))
	sel := SelectionPar(tab, predtest.MustParse("x > 0", s), 1)
	if !sel[0] || sel[1] || sel[2] {
		t.Fatalf("nullable selection wrong: %v", sel)
	}
}

func TestSelectionDivisionMatchesEval(t *testing.T) {
	// predicate.Eval divides in float64, where 1/5 + 2/5 = 3/5 is false;
	// the filter must not answer with exact rational arithmetic instead.
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "c", Type: predicate.TypeInteger, NotNull: true},
	)
	tab := NewTable("t", s)
	tab.AppendRow(predicate.IntVal(1), predicate.IntVal(2), predicate.IntVal(3))
	for _, src := range []string{"a / 5 + b / 5 = c / 5", "a / 10 + b / 10 <> c / 10"} {
		p := predtest.MustParse(src, s)
		if got, want := SelectionPar(tab, p, 1)[0], predicate.Satisfies(p, tab.Tuple(0)); got != want {
			t.Errorf("%s: filter %v, eval %v", src, got, want)
		}
	}
}

func TestSelectionLiteralAndEmpty(t *testing.T) {
	s := predicate.NewSchema(predicate.Column{Name: "x", Type: predicate.TypeInteger, NotNull: true})
	tab := NewTable("t", s)
	for i := int64(0); i < 10; i++ {
		tab.AppendRow(predicate.IntVal(i))
	}
	for _, ok := range SelectionPar(tab, predicate.TruePred, 1) {
		if !ok {
			t.Fatal("TRUE literal must select everything")
		}
	}
	for _, ok := range SelectionPar(tab, predicate.FalsePred, 1) {
		if ok {
			t.Fatal("FALSE literal must select nothing")
		}
	}
	empty := NewTable("e", s)
	if got := SelectionPar(empty, predicate.TruePred, 1); len(got) != 0 {
		t.Fatalf("empty table selection length %d", len(got))
	}
}

func BenchmarkSelectionVectorized(b *testing.B) {
	s := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
	)
	tab := NewTable("t", s)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		tab.AppendRow(predicate.IntVal(int64(r.Intn(1000))), predicate.IntVal(int64(r.Intn(1000))))
	}
	p := predtest.MustParse("a - b < 100 AND a < 700", s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectionPar(tab, p, 1)
	}
}
