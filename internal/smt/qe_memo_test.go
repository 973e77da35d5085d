package smt

import (
	"context"
	"errors"
	"math/big"
	"runtime"
	"sync/atomic"
	"testing"
)

// cancelAfterErrs is a context whose Err() starts failing from the k-th
// call onward, which lets a test land a cancellation deterministically on
// every checkStop poll point in turn.
type cancelAfterErrs struct {
	context.Context
	k     int32
	calls atomic.Int32
}

func (c *cancelAfterErrs) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return c.Context.Err()
}

// qeMemoTestFormula needs enough elimination structure that a cancellation
// can land mid-way through nested eliminate calls.
func qeMemoTestFormula() Formula {
	x, y, z := IntVar("mx"), IntVar("my"), IntVar("mz")
	conj := func(fs ...Formula) Formula { return NewAnd(fs...) }
	two := func(v Var) *Term { return VarTerm(v).Scale(big.NewRat(2, 1)) }
	three := func(v Var) *Term { return VarTerm(v).Scale(big.NewRat(3, 1)) }
	return NewOr(
		conj(LT(two(x).Add(three(y)), ConstTerm(7)), EQ(VarTerm(x).AddScaled(VarTerm(y), big.NewRat(-1, 1)), ConstTerm(1)), LE(VarTerm(z), VarTerm(x))),
		conj(LE(three(x), VarTerm(y)), LT(VarTerm(y), two(z)), LT(VarTerm(z), ConstTerm(5))),
		conj(EQ(two(y), three(z)), LT(VarTerm(x), VarTerm(z)), LT(ConstTerm(-3), VarTerm(x))),
		conj(LE(VarTerm(x).Add(VarTerm(y)).Add(VarTerm(z)), ConstTerm(0)), LT(ConstTerm(0), VarTerm(x))),
	)
}

// TestQEMemoCancellationSweep is the poisoned-entry regression: a result
// produced while the context was being cancelled must never be cached. The
// sweep lands a cancellation on every checkStop poll point of a clean run
// in turn, then re-runs on a fresh solver and context and requires the
// answer the clean run produced — a poisoned memo entry would surface here
// as a wrong or malformed result.
func TestQEMemoCancellationSweep(t *testing.T) {
	f := qeMemoTestFormula()
	qeMemo.Purge()
	probe := &cancelAfterErrs{Context: context.Background(), k: 1 << 30}
	want, err := New().SatisfiableCtx(probe, f)
	if err != nil {
		t.Fatal(err)
	}
	polls := probe.calls.Load()
	if polls < 3 {
		t.Fatalf("formula too shallow: only %d polls", polls)
	}
	step := int32(1)
	if polls > 300 {
		step = polls / 300
	}
	sawCancel := false
	for k := int32(1); k <= polls; k += step {
		qeMemo.Purge()
		ctx := &cancelAfterErrs{Context: context.Background(), k: k}
		if _, err := New().SatisfiableCtx(ctx, f); err != nil {
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("k=%d: unexpected error kind: %v", k, err)
			}
			sawCancel = true
		}
		got, err := New().SatisfiableCtx(context.Background(), f)
		if err != nil {
			t.Fatalf("k=%d: rerun after cancellation failed: %v", k, err)
		}
		if got != want {
			t.Fatalf("k=%d: rerun after cancellation answered %v, clean run answered %v", k, got, want)
		}
	}
	if !sawCancel {
		t.Fatal("sweep never landed a cancellation")
	}
}

// TestQEMemoBudgetErrorNotCached drives an elimination into ErrBudget with
// a tiny disjunct budget and then requires a full-budget solver to produce
// the clean answer: a budget-aborted partial result must not be served
// from the memo.
func TestQEMemoBudgetErrorNotCached(t *testing.T) {
	f := qeMemoTestFormula()
	qeMemo.Purge()
	want, err := New().Satisfiable(f)
	if err != nil {
		t.Fatal(err)
	}
	qeMemo.Purge()
	small := &Solver{MaxDisjuncts: 1}
	if _, err := small.Satisfiable(f); err == nil {
		t.Skip("budget of 1 disjunct did not trip on this formula")
	} else if !errors.Is(err, ErrBudget) {
		t.Fatalf("unexpected error kind: %v", err)
	}
	got, err := New().Satisfiable(f)
	if err != nil {
		t.Fatalf("rerun after budget abort failed: %v", err)
	}
	if got != want {
		t.Fatalf("rerun after budget abort answered %v, clean run answered %v", got, want)
	}
}

// TestQEMemoHitsServeSameAnswer checks the memo actually fires across
// solver instances and that a hit reproduces the miss's answer.
func TestQEMemoHitsServeSameAnswer(t *testing.T) {
	f := qeMemoTestFormula()
	qeMemo.Purge()
	first, err := New().Satisfiable(f)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := mQEMemoHits.Value()
	second, err := New().Satisfiable(f)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("memo-served run answered %v, first run answered %v", second, first)
	}
	if mQEMemoHits.Value() == hitsBefore {
		t.Fatal("second identical query produced no memo hits")
	}
}

// TestParallelDisjunctsMatchSerial pins the parallel outermost-Or
// elimination to the serial loop's result, byte for byte.
func TestParallelDisjunctsMatchSerial(t *testing.T) {
	x, y := IntVar("px"), IntVar("py")
	var disjuncts []Formula
	for i := int64(0); i < 8; i++ {
		disjuncts = append(disjuncts, NewAnd(
			LT(VarTerm(x).Scale(big.NewRat(i+2, 1)).Add(VarTerm(y)), ConstTerm(3*i+1)),
			LE(ConstTerm(-i), VarTerm(x)),
			EQ(VarTerm(y).AddScaled(VarTerm(x), big.NewRat(-(i+1), 1)), ConstTerm(i)),
		))
	}
	g := &Exists{V: x, F: NewOr(disjuncts...)}

	old := runtime.GOMAXPROCS(1)
	qeMemo.Purge()
	serial, serialErr := New().QE(g)
	runtime.GOMAXPROCS(old)
	if serialErr != nil {
		t.Fatal(serialErr)
	}

	qeMemo.Purge()
	parallel, parallelErr := New().QE(g)
	if parallelErr != nil {
		t.Fatal(parallelErr)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("parallel elimination diverged:\n serial:   %s\n parallel: %s", serial, parallel)
	}
}
