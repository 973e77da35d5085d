package engine

import (
	"fmt"
	"sort"
	"time"

	"sia/internal/predicate"
)

// AggFunc is an aggregate function kind.
type AggFunc int

const (
	// AggCount is COUNT(*).
	AggCount AggFunc = iota
	// AggSum is SUM(col).
	AggSum
	// AggMin is MIN(col).
	AggMin
	// AggMax is MAX(col).
	AggMax
)

// AggSpec names one aggregate output.
type AggSpec struct {
	Func AggFunc
	Col  string // ignored for AggCount
	As   string
}

// AggregatePar groups t by integral group-by columns and computes the
// given aggregates over integral inputs, on par workers (par <= 0 means
// DefaultParallelism). Each worker folds its morsels into a private group
// table keyed by []int64 key tuples (value plus NULL flag per group-by
// column — no string formatting on the hot path); the per-worker tables
// are then merged and the merged groups ordered by the smallest input row
// that produced them, which is exactly a single worker's
// first-appearance order, so the output is byte-identical at any worker
// count.
//
// SQL semantics: SUM/MIN/MAX skip NULL inputs and return NULL for a group
// with no non-NULL input; COUNT(*) counts every row. NULL group-by keys
// form their own group (all NULLs together, as GROUP BY requires) and are
// emitted as NULL key values.
func AggregatePar(t *Table, groupBy []string, aggs []AggSpec, par int) (*Table, error) {
	defer observeOp(opAggregate, time.Now())
	for _, g := range groupBy {
		c, ok := t.schema.Lookup(g)
		if !ok || !c.Type.Integral() {
			return nil, fmt.Errorf("engine: GROUP BY column %q must be integral", g)
		}
	}
	var outCols []predicate.Column
	for _, g := range groupBy {
		c, _ := t.schema.Lookup(g)
		outCols = append(outCols, c)
	}
	for _, a := range aggs {
		switch a.Func {
		case AggCount:
			outCols = append(outCols, predicate.Column{Name: a.As, Type: predicate.TypeInteger, NotNull: true})
		case AggSum, AggMin, AggMax:
			c, ok := t.schema.Lookup(a.Col)
			if !ok || !c.Type.Integral() {
				return nil, fmt.Errorf("engine: aggregate input column %q must be integral", a.Col)
			}
			// A NOT NULL input can never yield an all-NULL group (every
			// group holds at least one row), so the output stays NOT NULL;
			// a nullable input makes the aggregate nullable.
			outCols = append(outCols, predicate.Column{Name: a.As, Type: predicate.TypeInteger, NotNull: c.NotNull})
		default:
			return nil, fmt.Errorf("engine: unknown aggregate function %d", a.Func)
		}
	}
	out := NewTable(t.Name+"_agg", predicate.NewSchema(outCols...))

	tables := make([]*groupTable, normalizeParallelism(par, t.nRows))
	forEachMorsel(t.nRows, par, func(worker, _, lo, hi int) {
		gt := tables[worker]
		if gt == nil {
			gt = newGroupTable(t, groupBy, aggs)
			tables[worker] = gt
		}
		gt.update(lo, hi)
	})

	// Merge the per-worker tables (worker 0's is the target), then order
	// groups by the smallest row index that produced them — the serial
	// first-appearance order, independent of which worker saw which morsel.
	var merged *groupTable
	for _, gt := range tables {
		if gt == nil {
			continue
		}
		if merged == nil {
			merged = gt
			continue
		}
		merged.absorb(gt)
	}
	if merged == nil {
		return out, nil
	}
	order := make([]int, merged.numGroups())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return merged.firstRow[order[i]] < merged.firstRow[order[j]]
	})
	vals := make([]predicate.Value, 0, len(groupBy)+len(aggs))
	for _, g := range order {
		vals = vals[:0]
		key := merged.key(g)
		for i := range groupBy {
			if key[2*i+1] != 0 {
				vals = append(vals, predicate.NullValue())
			} else {
				vals = append(vals, predicate.IntVal(key[2*i]))
			}
		}
		for i, a := range aggs {
			acc := merged.accs[g*len(aggs)+i]
			switch a.Func {
			case AggCount:
				vals = append(vals, predicate.IntVal(acc))
			default:
				if merged.counts[g*len(aggs)+i] == 0 {
					vals = append(vals, predicate.NullValue())
				} else {
					vals = append(vals, predicate.IntVal(acc))
				}
			}
		}
		out.AppendRow(vals...)
	}
	return out, nil
}

// groupTable is one worker's hash-aggregation state: groups keyed by flat
// []int64 tuples — per group-by column a (value, NULL flag) pair — with
// open hashing over a bucket map and parallel flat accumulator arrays.
type groupTable struct {
	aggs []AggSpec
	keyW int // ints per key tuple: 2 per group-by column

	buckets map[uint64][]int // key-tuple hash → group ids (collision chain)
	keys    []int64          // group g's tuple at [g*keyW, (g+1)*keyW)
	accs    []int64          // group g, aggregate i at g*len(aggs)+i
	counts  []int64          // non-NULL inputs folded into accs[g*len(aggs)+i]
	// firstRow[g] is the smallest input row folded into group g by this
	// worker (after absorb: by any worker). Sorting merged groups on it
	// reproduces the serial first-appearance output order.
	firstRow []int

	keyCols []*colData // backing columns of groupBy, resolved once
	aggCols []*colData // backing columns per aggregate (nil for COUNT)
	keyBuf  []int64
}

func newGroupTable(t *Table, groupBy []string, aggs []AggSpec) *groupTable {
	gt := &groupTable{
		aggs:    aggs,
		keyW:    2 * len(groupBy),
		buckets: map[uint64][]int{},
		keyBuf:  make([]int64, 2*len(groupBy)),
	}
	for _, g := range groupBy {
		gt.keyCols = append(gt.keyCols, t.cols[g])
	}
	for _, a := range aggs {
		if a.Func == AggCount {
			gt.aggCols = append(gt.aggCols, nil)
		} else {
			gt.aggCols = append(gt.aggCols, t.cols[a.Col])
		}
	}
	return gt
}

func (gt *groupTable) numGroups() int { return len(gt.firstRow) }

func (gt *groupTable) key(g int) []int64 { return gt.keys[g*gt.keyW : (g+1)*gt.keyW] }

// update folds rows [lo, hi) of the input table into the group table.
func (gt *groupTable) update(lo, hi int) {
	nAggs := len(gt.aggs)
	for row := lo; row < hi; row++ {
		for i, cd := range gt.keyCols {
			if cd.nulls != nil && cd.nulls[row] {
				gt.keyBuf[2*i] = 0
				gt.keyBuf[2*i+1] = 1
			} else {
				gt.keyBuf[2*i] = cd.ints[row]
				gt.keyBuf[2*i+1] = 0
			}
		}
		g := gt.lookup(gt.keyBuf, row)
		if row < gt.firstRow[g] {
			gt.firstRow[g] = row
		}
		for i, a := range gt.aggs {
			slot := g*nAggs + i
			switch a.Func {
			case AggCount:
				gt.accs[slot]++
				continue
			default:
			}
			cd := gt.aggCols[i]
			if cd.nulls != nil && cd.nulls[row] {
				continue // SQL: NULL inputs never contribute to SUM/MIN/MAX
			}
			v := cd.ints[row]
			switch a.Func {
			case AggSum:
				gt.accs[slot] += v
			case AggMin:
				if gt.counts[slot] == 0 || v < gt.accs[slot] {
					gt.accs[slot] = v
				}
			case AggMax:
				if gt.counts[slot] == 0 || v > gt.accs[slot] {
					gt.accs[slot] = v
				}
			}
			gt.counts[slot]++
		}
	}
}

// lookup returns the group id for the key tuple, creating the group (with
// firstRow seeded from row) when it is new.
func (gt *groupTable) lookup(key []int64, row int) int {
	h := hashKey(key)
	for _, g := range gt.buckets[h] {
		if keyEq(gt.key(g), key) {
			return g
		}
	}
	g := gt.numGroups()
	gt.buckets[h] = append(gt.buckets[h], g)
	gt.keys = append(gt.keys, key...)
	gt.accs = append(gt.accs, make([]int64, len(gt.aggs))...)
	gt.counts = append(gt.counts, make([]int64, len(gt.aggs))...)
	gt.firstRow = append(gt.firstRow, row)
	return g
}

// absorb merges another worker's group table into gt: accumulators combine
// per aggregate kind, and firstRow keeps the global minimum.
func (gt *groupTable) absorb(o *groupTable) {
	nAggs := len(gt.aggs)
	for og := 0; og < o.numGroups(); og++ {
		g := gt.lookup(o.key(og), o.firstRow[og])
		if o.firstRow[og] < gt.firstRow[g] {
			gt.firstRow[g] = o.firstRow[og]
		}
		for i, a := range gt.aggs {
			dst, src := g*nAggs+i, og*nAggs+i
			switch a.Func {
			case AggCount, AggSum:
				gt.accs[dst] += o.accs[src]
			case AggMin:
				if o.counts[src] > 0 && (gt.counts[dst] == 0 || o.accs[src] < gt.accs[dst]) {
					gt.accs[dst] = o.accs[src]
				}
			case AggMax:
				if o.counts[src] > 0 && (gt.counts[dst] == 0 || o.accs[src] > gt.accs[dst]) {
					gt.accs[dst] = o.accs[src]
				}
			}
			gt.counts[dst] += o.counts[src]
		}
	}
}

// hashKey hashes a flat key tuple by mixing each element into a running
// 64-bit state.
func hashKey(key []int64) uint64 {
	h := uint64(len(key))
	for _, k := range key {
		h = mixHash(h ^ uint64(k))
	}
	return h
}

func keyEq(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
