package predicate

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Program is a predicate compiled for the two places that interpret it
// over stored data: the engine's filter and the storage layer's zone maps.
// Compilation pushes every NOT down to the comparisons, so a Program is an
// AND/OR tree over atoms. On that form "the predicate is TRUE on a row" is
// plain boolean logic over "each atom is TRUE on the row": a Kleene AND is
// TRUE exactly when every operand is TRUE, and a Kleene OR exactly when
// some operand is. Neither interpreter needs FALSE or UNKNOWN.
type Program struct {
	// Kind says which of Args and Atom is meaningful.
	Kind ProgKind
	// Args are the operands of a ProgAnd or ProgOr node. An AND without
	// operands is TRUE and an OR without operands is FALSE, which is how
	// the TRUE and FALSE literals compile.
	Args []*Program
	// Atom is the comparison of a ProgAtom leaf.
	Atom *Atom
}

// ProgKind is the kind of a Program node.
type ProgKind uint8

const (
	// ProgAtom is a leaf holding one comparison.
	ProgAtom ProgKind = iota
	// ProgAnd is TRUE when every operand is TRUE.
	ProgAnd
	// ProgOr is TRUE when some operand is TRUE.
	ProgOr
)

// Atom is one comparison of a compiled predicate. Cmp always decides it
// exactly: a row satisfies the atom when Eval(Cmp, row) is True. When
// Linear is set, the atom also has the exact integer form
// Σ Terms[i].Coef·Terms[i].Col + K ⋈ 0 with ⋈ = Op ∈ {<, =, <>}, which
// agrees with Cmp on every row whose Cols are all non-NULL and whose
// values pass FitsInt64. Every other comparison is a residual: non-linear
// arithmetic, division, a DOUBLE column or constant, or a coefficient
// that does not fit int64.
type Atom struct {
	// Cmp is the comparison, with any NOT above it already folded into
	// its operator by CmpOp.Negate.
	Cmp *Compare
	// Cols is every column Cmp references, sorted and distinct. It
	// includes columns whose coefficient cancels to zero: NULL still
	// propagates through them.
	Cols []string
	// Linear reports whether Terms, K, KMag and Op hold the linear form.
	Linear bool
	// Terms has one entry per column of Cols, in the same order; a column
	// that cancels out has Coef 0.
	Terms []Term
	// K is the constant of the linear form.
	K int64
	// KMag bounds the constants the comparison's arithmetic passes
	// through; see Term.Mag.
	KMag uint64
	// Op is CmpLT, CmpEQ or CmpNE.
	Op CmpOp
}

// Term is one coefficient·column product of a linear atom. Mag ≥ |Coef|
// is the column's weight in the overflow guard: every value Eval computes
// while evaluating Cmp, and every partial sum of the linear form, is at
// most KMag + Σ Magᵢ·|colᵢ| in magnitude. Mag exceeds |Coef| when the
// column occurs more than once (a + b − a, or a < a + 1), or when a zero
// multiplier hides it (0·(a + a)).
type Term struct {
	Col  string
	Coef int64
	Mag  uint64
}

// Compile lowers p to a Program. NOT is pushed down by Kleene De Morgan
// (NOT over AND is OR over the NOTs, and the dual) and absorbed into each
// comparison by CmpOp.Negate, which is exact under three-valued logic: a
// comparison with a NULL operand is UNKNOWN either way, and otherwise the
// negated operator has the opposite truth value. Every comparison then
// becomes a linear atom when its arithmetic allows it, or a residual atom.
func Compile(p Predicate) *Program { return compile(p, false) }

func compile(p Predicate, negated bool) *Program {
	switch x := p.(type) {
	case *Compare:
		if negated {
			x = &Compare{Op: x.Op.Negate(), Left: x.Left, Right: x.Right}
		}
		return &Program{Kind: ProgAtom, Atom: compileAtom(x)}
	case *And:
		if negated {
			return compileArgs(ProgOr, x.Preds, true)
		}
		return compileArgs(ProgAnd, x.Preds, false)
	case *Or:
		if negated {
			return compileArgs(ProgAnd, x.Preds, true)
		}
		return compileArgs(ProgOr, x.Preds, false)
	case *Not:
		return compile(x.P, !negated)
	case *Literal:
		if x.B != negated {
			return &Program{Kind: ProgAnd}
		}
		return &Program{Kind: ProgOr}
	default:
		panic(fmt.Sprintf("predicate: unknown predicate %T", p))
	}
}

// compileArgs compiles the operands of an AND or OR node of the given
// kind; under a negation the caller has already swapped the connective (De
// Morgan), and the negation moves onto each operand.
func compileArgs(kind ProgKind, ps []Predicate, negated bool) *Program {
	out := &Program{Kind: kind, Args: make([]*Program, len(ps))}
	for i, q := range ps {
		out.Args[i] = compile(q, negated)
	}
	return out
}

// compileAtom builds the atom for one comparison. A comparison is linear
// when both sides are sums, differences and constant multiples of
// integral columns and integral constants: Eval computes those in exact
// int64 arithmetic unless something overflows, and FitsInt64 rules that
// out. Division and DOUBLE constants stay residual, because Eval computes
// them in float64, where a / 5 + b / 5 = c / 5 is FALSE at (1, 2, 3) and
// an exact integer form would say TRUE. The linear form is normalized so
// only three operators remain: > and >= are negated into < and <=, and
// Σ + k <= 0 is tightened to Σ + k − 1 < 0, exact over the integers.
func compileAtom(c *Compare) *Atom {
	a := &Atom{Cmp: c, Cols: Columns(c)}
	if !intArith(c.Left) || !intArith(c.Right) {
		return a
	}
	diff := Sub(c.Left, c.Right)
	lin, err := Linearize(diff)
	if err != nil {
		return a
	}
	op := c.Op
	if op == CmpGT || op == CmpGE {
		lin.Scale(big.NewRat(-1, 1))
		op = op.Flip()
	}
	if op == CmpLE {
		lin.Const.Sub(lin.Const, big.NewRat(1, 1))
		op = CmpLT
	}
	mag := evalBound(diff)
	k, okK := ratInt64(lin.Const)
	kMag, okMag := ratUint64(mag.Const)
	if !okK || !okMag {
		return a
	}
	terms := make([]Term, len(a.Cols))
	for i, col := range a.Cols {
		terms[i].Col = col
		if terms[i].Coef, okK = ratInt64(lin.Coeffs[col]); !okK {
			return a
		}
		if terms[i].Mag, okMag = ratUint64(mag.Coeffs[col]); !okMag {
			return a
		}
	}
	a.Linear, a.Terms, a.K, a.KMag, a.Op = true, terms, k, kMag, op
	return a
}

// intArith reports whether Eval computes e in int64 arithmetic, widening
// to float64 only on overflow: no DOUBLE column or constant, no division.
func intArith(e Expr) bool {
	switch x := e.(type) {
	case *ColumnRef:
		return x.Type.Integral()
	case *Const:
		return x.Type.Integral()
	case *BinaryExpr:
		return x.Op != OpDiv && intArith(x.Left) && intArith(x.Right)
	default:
		panic(fmt.Sprintf("predicate: unknown expression %T", e))
	}
}

// evalBound returns a form w with non-negative coefficients that bounds
// every value Eval computes at e or below it: |v| ≤ w.Const + Σ w[c]·|c|.
// It bounds the linear form of e too, coefficient by coefficient. Unlike
// the linear form, nothing cancels: Eval computes a + b − a as written, so
// the intermediate a + b is what must fit int64. e must pass intArith and
// linearize.
func evalBound(e Expr) *Linear {
	w := NewLinear()
	switch x := e.(type) {
	case *ColumnRef:
		w.AddTerm(x.Name, big.NewRat(1, 1))
	case *Const:
		w.Const.SetInt64(x.Val.Int).Abs(w.Const)
	case *BinaryExpr:
		l, r := evalBound(x.Left), evalBound(x.Right)
		if x.Op == OpMul {
			// One operand has a constant value v. The product scales the
			// other operand's bound by |v|, and by at least 1 because that
			// operand is computed first, even when v is 0.
			if v := linearConst(x.Right); v != nil {
				l.Scale(atLeastOne(v))
			} else {
				r.Scale(atLeastOne(linearConst(x.Left)))
			}
		}
		w.AddScaled(l, big.NewRat(1, 1))
		w.AddScaled(r, big.NewRat(1, 1))
	default:
		panic(fmt.Sprintf("predicate: unknown expression %T", e))
	}
	return w
}

// linearConst returns the value of e when its linear form has no column
// terms, and nil otherwise.
func linearConst(e Expr) *big.Rat {
	l, err := Linearize(e)
	if err != nil || !l.IsConst() {
		return nil
	}
	return l.Const
}

// atLeastOne returns max(1, |v|).
func atLeastOne(v *big.Rat) *big.Rat {
	m := new(big.Rat).Abs(v)
	if m.Cmp(big.NewRat(1, 1)) < 0 {
		m.SetInt64(1)
	}
	return m
}

// ratInt64 converts an integral coefficient (nil is zero) to int64, and
// reports whether it fits.
func ratInt64(v *big.Rat) (int64, bool) {
	if v == nil {
		return 0, true
	}
	return v.Num().Int64(), v.Num().IsInt64()
}

// ratUint64 converts a non-negative integral bound (nil is zero) to
// uint64, and reports whether it fits.
func ratUint64(v *big.Rat) (uint64, bool) {
	if v == nil {
		return 0, true
	}
	return v.Num().Uint64(), v.Num().IsUint64()
}

// FitsInt64 is the one overflow guard for a linear atom. bound(col) must
// bound |v| for every value v of col the evaluation can see. The guard
// holds when
//
//	KMag + Σ Magᵢ·bound(Colᵢ) + 1 ≤ MaxInt64,
//
// and then every product Coefᵢ·vᵢ and every partial sum of Σ Coefᵢ·vᵢ + K,
// in any order, fits int64, and so does every integer Eval computes on
// the way to Cmp's answer: the linear form and Cmp agree exactly. The
// extra unit covers the k−1 tightening of <=. A residual atom never fits.
func (a *Atom) FitsInt64(bound func(col string) uint64) bool {
	if !a.Linear {
		return false
	}
	total, carry := bits.Add64(a.KMag, 1, 0)
	for _, t := range a.Terms {
		hi, prod := bits.Mul64(t.Mag, bound(t.Col))
		var c uint64
		total, c = bits.Add64(total, prod, 0)
		carry |= hi | c
	}
	return carry == 0 && total <= math.MaxInt64
}
