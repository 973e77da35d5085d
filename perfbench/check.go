package main

import (
	"fmt"
	"math"
	"sort"

	"sia/internal/engine"
	"sia/internal/predicate"
	"sia/internal/tpch"
)

// digest is an order-independent fingerprint of a table's row multiset:
// the row count and the wrapping sum of a strong per-row hash over every
// column (by name, so column order does not matter either). Two plans that
// return the same rows in any order have equal digests.
type digest struct {
	Rows int
	Sum  uint64
}

func (d digest) String() string { return fmt.Sprintf("%d rows/%016x", d.Rows, d.Sum) }

func tableDigest(t *engine.Table) digest {
	n := t.NumRows()
	h := make([]uint64, n)
	for i := range h {
		h[i] = 0xcbf29ce484222325
	}
	cols := t.Schema().Columns()
	names := make([]string, 0, len(cols))
	integral := map[string]bool{}
	for _, c := range cols {
		names = append(names, c.Name)
		integral[c.Name] = c.Type.Integral()
	}
	sort.Strings(names)
	const prime = 0x100000001b3
	for _, name := range names {
		nulls := t.Nulls(name)
		isInt := integral[name]
		var ints []int64
		var reals []float64
		if isInt {
			ints = t.Ints(name)
		} else {
			reals = t.Reals(name)
		}
		for i := 0; i < n; i++ {
			var v uint64
			if isInt {
				v = uint64(ints[i])
			} else {
				v = math.Float64bits(reals[i])
			}
			if nulls != nil && nulls[i] {
				v = 0x9e3779b97f4a7c15 // NULL hashes apart from every value's mix below
			} else {
				v = mix64(v)
			}
			h[i] = (h[i] ^ v) * prime
		}
	}
	d := digest{Rows: n}
	for _, x := range h {
		d.Sum += mix64(x)
	}
	return d
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// validitySample is a seeded sample of TPC-H join rows used to check a
// synthesized predicate on data, independently of the solver: every row
// that satisfies p must satisfy p₁ (Sia's validity, p ⟹ p₁).
type validitySample struct {
	rows []predicate.Tuple
}

// newValiditySample joins a small seeded TPC-H instance and keeps every
// stride-th joined row, up to n rows.
func newValiditySample(seed int64, n int) (*validitySample, error) {
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 0.2, Seed: seed})
	joined, err := engine.HashJoin(lineitem, orders, "l_orderkey", "o_orderkey")
	if err != nil {
		return nil, fmt.Errorf("validity sample: %w", err)
	}
	stride := max(1, joined.NumRows()/n)
	s := &validitySample{}
	for r := 0; r < joined.NumRows() && len(s.rows) < n; r += stride {
		s.rows = append(s.rows, joined.Tuple(r))
	}
	return s, nil
}

// check returns an error naming the first sample row that satisfies p but
// not p1. A nil p1 (the trivial TRUE) always holds.
func (s *validitySample) check(p, p1 predicate.Predicate) error {
	if p1 == nil {
		return nil
	}
	for _, row := range s.rows {
		// tribool: validity is about rows a filter keeps — p keeps a row
		// only when TRUE, and p₁ must then be TRUE too, not UNKNOWN.
		if predicate.Eval(p, row) == predicate.True && predicate.Eval(p1, row) != predicate.True {
			return fmt.Errorf("synthesized %v is refuted by a sample row satisfying %v: %v", p1, p, row)
		}
	}
	return nil
}

// sameDigests returns an error unless every named digest equals the first.
func sameDigests(what string, names []string, ds []digest) error {
	for i := 1; i < len(ds); i++ {
		if ds[i] != ds[0] {
			return fmt.Errorf("%s: %s result %v differs from %s result %v", what, names[i], ds[i], names[0], ds[0])
		}
	}
	return nil
}
