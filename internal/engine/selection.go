package engine

import (
	"fmt"

	"sia/internal/predicate"
)

// SelectionPar evaluates a predicate over every row of t on par workers
// (par <= 0 means DefaultParallelism) and returns the acceptance bitmap:
// true exactly where predicate.Eval returns True. See selectProgram.
func SelectionPar(t *Table, p predicate.Predicate, par int) []bool {
	return selectProgram(t, predicate.Compile(p), par)
}

// selectProgram binds a compiled predicate to t and runs it morsel-parallel
// over disjoint row ranges. Each morsel starts all-selected and every node
// narrows it in place, so an atom only ever looks at rows its ancestors
// still select. The bitmap is identical at any worker count: rows are
// independent and each worker writes only its own range.
func selectProgram(t *Table, prog *predicate.Program, par int) []bool {
	sel := make([]bool, t.nRows)
	b := bind(t, prog)
	forEachMorsel(t.nRows, par, func(_, _, lo, hi int) {
		chunk := sel[lo:hi]
		for i := range chunk {
			chunk[i] = true
		}
		b.run(chunk, lo)
	})
	return sel
}

// boundProgram is a compiled predicate bound to one table's columns.
// Binding happens once per (program, table); running is pure over disjoint
// row ranges, so morsels execute concurrently.
type boundProgram struct {
	kind predicate.ProgKind
	args []*boundProgram
	atom *predicate.Atom
	// A vectorized atom runs the linear kernels over the raw column
	// arrays.
	vector bool
	cols   [][]int64
	coefs  []int64
	// A residual atom evaluates atom.Cmp on a tuple of the referenced
	// columns the table has (an absent column reads as NULL).
	names []string
	data  []*colData
}

// bind resolves every atom of prog against t. A linear atom is vectorized
// when every column it references, coefficient zero included, is an
// integral NOT NULL column of t, and it passes the overflow guard with the
// columns' maxAbs bounds: the kernels use wrapping machine arithmetic and
// no NULL handling. Every other atom is a residual.
func bind(t *Table, prog *predicate.Program) *boundProgram {
	b := &boundProgram{kind: prog.Kind, atom: prog.Atom, args: make([]*boundProgram, len(prog.Args))}
	for i, q := range prog.Args {
		b.args[i] = bind(t, q)
	}
	a := prog.Atom
	if a == nil {
		return b
	}
	if t.vectorizable(a) {
		b.vector = true
		for _, tm := range a.Terms {
			if tm.Coef != 0 {
				b.cols = append(b.cols, t.cols[tm.Col].ints)
				b.coefs = append(b.coefs, tm.Coef)
			}
		}
		return b
	}
	for _, name := range a.Cols {
		if cd, ok := t.cols[name]; ok {
			b.names = append(b.names, name)
			b.data = append(b.data, cd)
		}
	}
	return b
}

func (t *Table) vectorizable(a *predicate.Atom) bool {
	if !a.Linear {
		return false
	}
	for _, name := range a.Cols {
		c, ok := t.schema.Lookup(name)
		if !ok || !c.Type.Integral() || !c.NotNull {
			return false
		}
	}
	return a.FitsInt64(func(col string) uint64 { return t.cols[col].maxAbs })
}

// run clears sel[i] for every row lo+i on which the program is not TRUE.
// AND narrows sel in place, operand by operand. OR runs each operand on
// the rows no earlier operand accepted and unions the results.
//
// sia:hotpath
func (b *boundProgram) run(sel []bool, lo int) {
	switch b.kind {
	case predicate.ProgAnd:
		for _, q := range b.args {
			q.run(sel, lo)
		}
	case predicate.ProgOr:
		// alloc: one scratch pair per OR node per morsel, not per row
		scratch := make([]bool, 2*len(sel))
		acc, try := scratch[:len(sel)], scratch[len(sel):]
		for _, q := range b.args {
			for i := range try {
				try[i] = sel[i] && !acc[i]
			}
			q.run(try, lo)
			for i := range acc {
				acc[i] = acc[i] || try[i]
			}
		}
		copy(sel, acc)
	case predicate.ProgAtom:
		if !b.vector {
			b.residual(sel, lo)
			return
		}
		a := b.atom
		switch a.Op {
		case predicate.CmpLT:
			vectorLT(b.cols, b.coefs, a.K, sel, lo)
		case predicate.CmpEQ:
			vectorEQ(b.cols, b.coefs, a.K, sel, lo, false)
		case predicate.CmpNE:
			vectorEQ(b.cols, b.coefs, a.K, sel, lo, true)
		default:
			panic(fmt.Sprintf("engine: linear atom with operator %v", a.Op))
		}
	default:
		panic(fmt.Sprintf("engine: unknown program node %d", b.kind))
	}
}

// residual evaluates the atom's comparison row by row with full
// three-valued semantics, on the rows still selected.
func (b *boundProgram) residual(sel []bool, lo int) {
	// alloc: one tuple per residual atom per morsel, reused across rows
	tup := make(predicate.Tuple, len(b.names))
	for i := range sel {
		if !sel[i] {
			continue
		}
		for j, cd := range b.data {
			// alloc: the same keys every row; the map is presized for them
			tup[b.names[j]] = cd.value(lo + i)
		}
		sel[i] = predicate.Satisfies(b.atom.Cmp, tup)
	}
}

// vectorLT ANDs (Σ coefᵢ·colᵢ + k < 0) into sel for rows [lo, lo+len(sel)),
// with unrolled shapes for the one- and two-column cases that dominate
// pushed-down predicates.
func vectorLT(cols [][]int64, coefs []int64, k int64, sel []bool, lo int) {
	switch len(cols) {
	case 0:
		if k >= 0 {
			for i := range sel {
				sel[i] = false
			}
		}
	case 1:
		a := cols[0][lo:]
		ca := coefs[0]
		if ca == 1 {
			for i := range sel {
				sel[i] = sel[i] && a[i]+k < 0
			}
		} else if ca == -1 {
			for i := range sel {
				sel[i] = sel[i] && k-a[i] < 0
			}
		} else {
			for i := range sel {
				sel[i] = sel[i] && ca*a[i]+k < 0
			}
		}
	case 2:
		a, b := cols[0][lo:], cols[1][lo:]
		ca, cb := coefs[0], coefs[1]
		if ca == 1 && cb == -1 {
			for i := range sel {
				sel[i] = sel[i] && a[i]-b[i]+k < 0
			}
		} else if ca == -1 && cb == 1 {
			for i := range sel {
				sel[i] = sel[i] && b[i]-a[i]+k < 0
			}
		} else {
			for i := range sel {
				sel[i] = sel[i] && ca*a[i]+cb*b[i]+k < 0
			}
		}
	default:
		for i := range sel {
			if !sel[i] {
				continue
			}
			s := k
			for j, col := range cols {
				s += coefs[j] * col[lo+i]
			}
			sel[i] = s < 0
		}
	}
}

// vectorEQ ANDs (Σ + k = 0), or its negation, into sel for rows
// [lo, lo+len(sel)).
func vectorEQ(cols [][]int64, coefs []int64, k int64, sel []bool, lo int, negate bool) {
	for i := range sel {
		if !sel[i] {
			continue
		}
		s := k
		for j, col := range cols {
			s += coefs[j] * col[lo+i]
		}
		sel[i] = (s == 0) != negate
	}
}
