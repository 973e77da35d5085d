package predicate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func tup(vals map[string]int64) Tuple {
	t := Tuple{}
	for k, v := range vals {
		t[k] = IntVal(v)
	}
	return t
}

func TestEvalComparisons(t *testing.T) {
	a := Col("a", TypeInteger)
	cases := []struct {
		op   CmpOp
		val  int64
		want TriBool
	}{
		{CmpLT, 4, True}, {CmpLT, 5, False}, {CmpLT, 6, False},
		{CmpGT, 4, False}, {CmpGT, 5, False}, {CmpGT, 6, True},
		{CmpLE, 5, True}, {CmpLE, 4, True}, {CmpLE, 6, False},
		{CmpGE, 5, True}, {CmpGE, 6, True}, {CmpGE, 4, False},
		{CmpEQ, 5, True}, {CmpEQ, 4, False},
		{CmpNE, 5, False}, {CmpNE, 4, True},
	}
	for _, c := range cases {
		p := Cmp(c.op, a, IntConst(5))
		if got := Eval(p, tup(map[string]int64{"a": c.val})); got != c.want {
			t.Errorf("a=%d %v 5: got %v, want %v", c.val, c.op, got, c.want)
		}
	}
}

func TestEvalArithmetic(t *testing.T) {
	a, b := Col("a", TypeInteger), Col("b", TypeInteger)
	tu := tup(map[string]int64{"a": 7, "b": 3})
	cases := []struct {
		e    Expr
		want Value
	}{
		{Add(a, b), IntVal(10)},
		{Sub(a, b), IntVal(4)},
		{Mul(a, b), IntVal(21)},
		{Div(a, b), RealVal(7.0 / 3.0)},
		{Add(Mul(a, IntConst(2)), IntConst(1)), IntVal(15)},
	}
	for _, c := range cases {
		got := EvalExpr(c.e, tu)
		if got.Null != c.want.Null || got.Int != c.want.Int || got.Real != c.want.Real {
			t.Errorf("%s: got %+v, want %+v", c.e, got, c.want)
		}
	}
}

// TestEvalMinInt64TimesMinusOne pins the overflow check of integer
// multiplication in both operand orders: MinInt64·−1 = 2⁶³ does not fit
// int64, so Eval must widen it to float64 instead of wrapping back to
// MinInt64.
func TestEvalMinInt64TimesMinusOne(t *testing.T) {
	a := Col("a", TypeInteger)
	tu := tup(map[string]int64{"a": math.MinInt64})
	for _, e := range []Expr{Mul(a, IntConst(-1)), Mul(IntConst(-1), a)} {
		if got, want := EvalExpr(e, tu), RealVal(-float64(math.MinInt64)); got != want {
			t.Errorf("%s at a = MinInt64: got %+v, want %+v", e, got, want)
		}
		if got := Eval(Cmp(CmpGT, e, IntConst(0)), tu); got != True {
			t.Errorf("%s > 0 at a = MinInt64: got %v, want TRUE", e, got)
		}
	}
}

func TestEvalDivisionByZeroIsNull(t *testing.T) {
	a := Col("a", TypeInteger)
	p := Cmp(CmpGT, Div(a, IntConst(0)), IntConst(1))
	if got := Eval(p, tup(map[string]int64{"a": 5})); got != Unknown {
		t.Fatalf("division by zero should evaluate Unknown, got %v", got)
	}
}

func TestEvalNullPropagation(t *testing.T) {
	a, b := Col("a", TypeInteger), Col("b", TypeInteger)
	withNull := Tuple{"a": NullValue(), "b": IntVal(1)}
	if got := Eval(Cmp(CmpLT, a, b), withNull); got != Unknown {
		t.Fatalf("NULL comparison should be Unknown, got %v", got)
	}
	// Kleene: FALSE AND UNKNOWN = FALSE, TRUE AND UNKNOWN = UNKNOWN.
	f := Cmp(CmpLT, b, IntConst(0))  // false
	tr := Cmp(CmpGT, b, IntConst(0)) // true
	u := Cmp(CmpLT, a, b)            // unknown
	if got := Eval(NewAnd(f, u), withNull); got != False {
		t.Errorf("FALSE AND UNKNOWN = %v, want FALSE", got)
	}
	if got := Eval(NewAnd(tr, u), withNull); got != Unknown {
		t.Errorf("TRUE AND UNKNOWN = %v, want UNKNOWN", got)
	}
	if got := Eval(NewOr(tr, u), withNull); got != True {
		t.Errorf("TRUE OR UNKNOWN = %v, want TRUE", got)
	}
	if got := Eval(NewOr(f, u), withNull); got != Unknown {
		t.Errorf("FALSE OR UNKNOWN = %v, want UNKNOWN", got)
	}
	if got := Eval(NewNot(u), withNull); got != Unknown {
		t.Errorf("NOT UNKNOWN = %v, want UNKNOWN", got)
	}
	// A column absent from the tuple behaves as NULL.
	if got := Eval(Cmp(CmpEQ, Col("missing", TypeInteger), b), Tuple{"b": IntVal(1)}); got != Unknown {
		t.Errorf("missing column should be Unknown, got %v", got)
	}
}

func TestTriBoolTables(t *testing.T) {
	vals := []TriBool{False, Unknown, True}
	for _, x := range vals {
		for _, y := range vals {
			if got := x.And(y); got != minTri(x, y) {
				t.Errorf("%v AND %v = %v", x, y, got)
			}
			if got := x.Or(y); got != maxTri(x, y) {
				t.Errorf("%v OR %v = %v", x, y, got)
			}
		}
		if x.Not().Not() != x {
			t.Errorf("double negation broke for %v", x)
		}
	}
}

func minTri(a, b TriBool) TriBool {
	if a < b {
		return a
	}
	return b
}

func maxTri(a, b TriBool) TriBool {
	if a > b {
		return a
	}
	return b
}

// randomPred builds a random predicate over columns a, b, c for property
// tests.
func randomPred(r *rand.Rand, depth int) Predicate {
	cols := []string{"a", "b", "c"}
	randExpr := func() Expr {
		e := Expr(Col(cols[r.Intn(len(cols))], TypeInteger))
		for i := r.Intn(3); i > 0; i-- {
			other := Expr(IntConst(int64(r.Intn(21) - 10)))
			if r.Intn(2) == 0 {
				other = Col(cols[r.Intn(len(cols))], TypeInteger)
			}
			switch r.Intn(3) {
			case 0:
				e = Add(e, other)
			case 1:
				e = Sub(e, other)
			default:
				e = Mul(e, IntConst(int64(r.Intn(5)-2)))
			}
		}
		return e
	}
	if depth <= 0 || r.Intn(3) == 0 {
		ops := []CmpOp{CmpLT, CmpGT, CmpLE, CmpGE, CmpEQ, CmpNE}
		return Cmp(ops[r.Intn(len(ops))], randExpr(), randExpr())
	}
	switch r.Intn(3) {
	case 0:
		return NewAnd(randomPred(r, depth-1), randomPred(r, depth-1))
	case 1:
		return NewOr(randomPred(r, depth-1), randomPred(r, depth-1))
	default:
		return NewNot(randomPred(r, depth-1))
	}
}

func randomTuple(r *rand.Rand, nullProb float64) Tuple {
	t := Tuple{}
	for _, c := range []string{"a", "b", "c"} {
		if r.Float64() < nullProb {
			t[c] = NullValue()
		} else {
			t[c] = IntVal(int64(r.Intn(41) - 20))
		}
	}
	return t
}

func TestDeMorganProperty(t *testing.T) {
	// Property: NOT(p AND q) === NOT p OR NOT q under 3VL, for random
	// predicates and tuples (with NULLs).
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := randomPred(r, 2)
		q := randomPred(r, 2)
		tu := randomTuple(r, 0.2)
		l := Eval(NewNot(&And{Preds: []Predicate{p, q}}), tu)
		rr := Eval(&Or{Preds: []Predicate{NewNot(p), NewNot(q)}}, tu)
		if l != rr {
			t.Fatalf("De Morgan violated for %s / %s on %v: %v vs %v", p, q, tu, l, rr)
		}
	}
}

func TestEvalNeverUnknownWithoutNulls(t *testing.T) {
	// Property: on a NULL-free tuple, a division-free predicate always
	// evaluates to a definite truth value.
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		p := randomPred(r, 3)
		tu := randomTuple(r, 0)
		if got := Eval(p, tu); got == Unknown {
			t.Fatalf("Unknown without NULLs: %s on %v", p, tu)
		}
	}
}

func TestNegationConsistencyProperty(t *testing.T) {
	// Property: Eval(NOT p) == Eval(p).Not() via quick.Check-style random
	// exploration.
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPred(r, 2)
		tu := randomTuple(r, 0.3)
		return Eval(NewNot(p), tu) == Eval(p, tu).Not()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
