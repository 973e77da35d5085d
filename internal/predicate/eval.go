package predicate

import (
	"fmt"
	"math"
)

// evalNum is an intermediate numeric result: NULL, an exact int64, or a
// float64. Arithmetic stays in int64 while both operands are integral and
// the operation is not division; it widens to float64 otherwise. Integer
// overflow also widens to float64, mirroring the exact-value semantics the
// symbolic encoder uses (big-integer arithmetic never overflows there).
type evalNum struct {
	null  bool
	isInt bool
	i     int64
	f     float64
}

func (n evalNum) real() float64 {
	if n.isInt {
		return float64(n.i)
	}
	return n.f
}

// EvalExpr evaluates an arithmetic expression against a tuple. A reference
// to a column absent from the tuple, or any NULL operand, yields NULL.
func EvalExpr(e Expr, t Tuple) Value {
	n := evalExpr(e, t)
	if n.null {
		return NullValue()
	}
	if n.isInt {
		return IntVal(n.i)
	}
	return RealVal(n.f)
}

func evalExpr(e Expr, t Tuple) evalNum {
	switch x := e.(type) {
	case *ColumnRef:
		v, ok := t[x.Name]
		if !ok || v.Null {
			return evalNum{null: true}
		}
		if x.Type.Integral() {
			return evalNum{isInt: true, i: v.Int}
		}
		return evalNum{f: v.Real}
	case *Const:
		if x.Val.Null {
			return evalNum{null: true}
		}
		if x.Type.Integral() {
			return evalNum{isInt: true, i: x.Val.Int}
		}
		return evalNum{f: x.Val.Real}
	case *BinaryExpr:
		l := evalExpr(x.Left, t)
		r := evalExpr(x.Right, t)
		if l.null || r.null {
			return evalNum{null: true}
		}
		return applyArith(x.Op, l, r)
	default:
		panic(fmt.Sprintf("predicate: unknown expression %T", e))
	}
}

func applyArith(op ArithOp, l, r evalNum) evalNum {
	if l.isInt && r.isInt && op != OpDiv {
		switch op {
		case OpAdd:
			if s, ok := addInt64(l.i, r.i); ok {
				return evalNum{isInt: true, i: s}
			}
		case OpSub:
			if s, ok := addInt64(l.i, -r.i); ok && !(r.i == math.MinInt64) {
				return evalNum{isInt: true, i: s}
			}
		case OpMul:
			if p, ok := mulInt64(l.i, r.i); ok {
				return evalNum{isInt: true, i: p}
			}
		}
		// Overflow: fall through to float arithmetic.
	}
	a, b := l.real(), r.real()
	switch op {
	case OpAdd:
		return evalNum{f: a + b}
	case OpSub:
		return evalNum{f: a - b}
	case OpMul:
		return evalNum{f: a * b}
	case OpDiv:
		if b == 0 {
			// SQL raises an error on division by zero; in a predicate
			// context we conservatively treat it as NULL so the row is
			// neither accepted nor definitively rejected.
			return evalNum{null: true}
		}
		return evalNum{f: a / b}
	default:
		panic(fmt.Sprintf("predicate: unknown operator %v", op))
	}
}

func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	// p/b == a alone misses MinInt64·−1: the product wraps to MinInt64,
	// and Go defines MinInt64 / −1 as MinInt64 too.
	if p/b != a || (a == math.MinInt64 && b == -1) {
		return 0, false
	}
	return p, true
}

// Eval evaluates a predicate against a tuple under SQL's three-valued
// logic: comparisons with a NULL operand are Unknown, and AND/OR/NOT follow
// Kleene semantics. A tuple "satisfies" p exactly when Eval returns True.
func Eval(p Predicate, t Tuple) TriBool {
	switch x := p.(type) {
	case *Compare:
		l := evalExpr(x.Left, t)
		r := evalExpr(x.Right, t)
		if l.null || r.null {
			return Unknown
		}
		return compareNums(x.Op, l, r)
	case *And:
		res := True
		for _, q := range x.Preds {
			res = res.And(Eval(q, t))
			// tribool: False is AND's absorbing element; Unknown must keep
			// evaluating, and does.
			if res == False {
				return False
			}
		}
		return res
	case *Or:
		res := False
		for _, q := range x.Preds {
			res = res.Or(Eval(q, t))
			// tribool: True is OR's absorbing element; Unknown must keep
			// evaluating, and does.
			if res == True {
				return True
			}
		}
		return res
	case *Not:
		return Eval(x.P, t).Not()
	case *Literal:
		if x.B {
			return True
		}
		return False
	default:
		panic(fmt.Sprintf("predicate: unknown predicate %T", p))
	}
}

// Satisfies reports whether the tuple satisfies the predicate (Eval == True).
// This is SQL's WHERE-clause collapse: Unknown rejects the row like False.
func Satisfies(p Predicate, t Tuple) bool { return Eval(p, t) == True } // tribool: WHERE semantics

func compareNums(op CmpOp, l, r evalNum) TriBool {
	var c int
	if l.isInt && r.isInt {
		switch {
		case l.i < r.i:
			c = -1
		case l.i > r.i:
			c = 1
		}
	} else {
		a, b := l.real(), r.real()
		switch {
		case a < b:
			c = -1
		case a > b:
			c = 1
		}
	}
	var ok bool
	switch op {
	case CmpLT:
		ok = c < 0
	case CmpGT:
		ok = c > 0
	case CmpLE:
		ok = c <= 0
	case CmpGE:
		ok = c >= 0
	case CmpEQ:
		ok = c == 0
	case CmpNE:
		ok = c != 0
	default:
		panic(fmt.Sprintf("predicate: unknown comparison %v", op))
	}
	if ok {
		return True
	}
	return False
}
