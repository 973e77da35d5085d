package engine

import (
	"math"
	"sort"
)

// Digest is an order-independent fingerprint of a table's row multiset:
// the row count plus the wrapping sum of a mixed per-row hash. Two tables
// holding the same rows in any order, with their columns in any order,
// have equal digests; a dropped, added or replaced row changes the sum
// except with probability about 2⁻⁶⁴. Harnesses compare results of plans
// whose row order legitimately differs (a rewrite can flip a join's build
// and probe sides) by digest instead of sorting or hashing rows to strings.
type Digest struct {
	Rows int
	Sum  uint64
}

// nullHash is what a NULL contributes to its row's hash in place of a
// mixed value. mix64(0) is 0, so NULL needs a constant of its own to hash
// apart from 0.
const nullHash = 0x9e3779b97f4a7c15

// Digest computes t's row-multiset digest. Columns are visited by name, so
// the digest does not depend on schema order; a value is hashed by its
// int64 or float64 bits, with NULL hashing apart from every value.
func (t *Table) Digest() Digest {
	h := make([]uint64, t.nRows)
	for i := range h {
		h[i] = 0xcbf29ce484222325 // FNV-1a offset basis
	}
	names := append([]string(nil), t.order...)
	sort.Strings(names)
	const prime = 0x100000001b3 // FNV-1a prime
	for _, name := range names {
		cd := t.cols[name]
		for i := range h {
			var v uint64
			switch {
			case cd.nulls != nil && cd.nulls[i]:
				v = nullHash
			case cd.typ.Integral():
				v = mix64(uint64(cd.ints[i]))
			default:
				v = mix64(math.Float64bits(cd.reals[i]))
			}
			h[i] = (h[i] ^ v) * prime
		}
	}
	d := Digest{Rows: t.nRows}
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
