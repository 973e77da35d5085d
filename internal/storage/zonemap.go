package storage

import (
	"fmt"

	"sia/internal/predicate"
)

// Zone-map pruning asks one question of a compiled predicate: may some row
// of the segment make it TRUE? SQL filters keep only TRUE rows, so a
// segment where no row can be TRUE contributes nothing and is skipped
// without reading a column page. predicate.Compile has already pushed
// every NOT into the comparisons, so the question splits along the
// program: an AND may be TRUE when every operand may be, an OR when some
// operand may be, and an atom is answered from the footer's per-column
// min/max and NULL counts.
//
// The answer is a sound over-approximation: anything the zone maps cannot
// bound (residual atoms, DOUBLE columns, columns the segment does not
// carry, a linear form that fails the overflow guard) answers "may be
// TRUE", which can only prevent pruning, never cause a wrong skip.
// Soundness is pinned by a differential property test against row-by-row
// predicate.Eval.

// CanMatch reports whether some row of the segment may satisfy prog
// (evaluate to TRUE). A false return is a proof from the zone maps that a
// scan may skip the segment without reading any column page. A nil
// program matches everything.
func (s *Segment) CanMatch(prog *predicate.Program) bool {
	return prog == nil || s.meta.mayBeTrue(prog)
}

func (m *segMeta) mayBeTrue(p *predicate.Program) bool {
	switch p.Kind {
	case predicate.ProgAnd:
		for _, q := range p.Args {
			if !m.mayBeTrue(q) {
				return false
			}
		}
		return true
	case predicate.ProgOr:
		for _, q := range p.Args {
			if m.mayBeTrue(q) {
				return true
			}
		}
		return false
	case predicate.ProgAtom:
		return m.atomMayBeTrue(p.Atom)
	default:
		panic(fmt.Sprintf("storage: unknown program node %d", p.Kind))
	}
}

// atomMayBeTrue answers for one comparison. A column that is NULL on every
// row makes the comparison UNKNOWN on every row, whatever its coefficient
// and whether or not the atom is linear. Otherwise a linear atom that
// passes the overflow guard with the columns' zone magnitudes has
// Σ cᵢxᵢ + k bounded to [lo, hi] in exact int64 arithmetic, and the
// comparison against zero may be TRUE somewhere in that interval.
func (m *segMeta) atomMayBeTrue(a *predicate.Atom) bool {
	bounded := true
	for _, col := range a.Cols {
		zm, ok := m.intZone(col)
		if ok && !zm.HasValues {
			return false
		}
		bounded = bounded && ok
	}
	if !bounded || !a.FitsInt64(func(col string) uint64 {
		zm, _ := m.intZone(col)
		return zm.magnitude()
	}) {
		return true
	}
	lo, hi := a.K, a.K
	for _, t := range a.Terms {
		zm, _ := m.intZone(t.Col)
		if t.Coef > 0 {
			lo += t.Coef * zm.Min
			hi += t.Coef * zm.Max
		} else {
			lo += t.Coef * zm.Max
			hi += t.Coef * zm.Min
		}
	}
	switch a.Op {
	case predicate.CmpLT:
		return lo < 0
	case predicate.CmpEQ:
		return lo <= 0 && hi >= 0
	case predicate.CmpNE:
		return lo != 0 || hi != 0
	default:
		panic(fmt.Sprintf("storage: linear atom with operator %v", a.Op))
	}
}

// intZone returns the zone map of the named column when the segment has
// it as an integral column, the only kind whose min/max bound its values.
func (m *segMeta) intZone(name string) (ZoneMap, bool) {
	for i, c := range m.cols() {
		if c.Name == name {
			return m.zones[i], c.Type.Integral()
		}
	}
	return ZoneMap{}, false
}

// magnitude bounds |v| over the zone's values, including |MinInt64| = 2⁶³.
func (z ZoneMap) magnitude() uint64 {
	lo, hi := uint64(-z.Min), uint64(z.Max)
	if z.Min >= 0 {
		lo = 0
	}
	if z.Max < 0 {
		hi = 0
	}
	return max(lo, hi)
}
