package engine

import (
	"fmt"
	"time"

	"sia/internal/predicate"
)

// FilterPar returns a new table containing the rows of t that satisfy p,
// on par workers (par <= 0 means DefaultParallelism). It is FilterTables
// over the single part t.
func FilterPar(t *Table, p predicate.Predicate, par int) *Table {
	return FilterTables(t.Name, t.schema, []*Table{t}, predicate.Compile(p), par)
}

// FilterTables returns one table named name with the given schema (which
// every part must share) holding the rows of parts that satisfy prog —
// every row when prog is nil — in part order, then row order. prog is
// bound to each part separately, so each part's own maxAbs bounds decide
// which atoms vectorize. Per part, the acceptance bitmap is evaluated
// morsel-parallel and per-morsel survivor counts are prefix-summed into
// row indices; the survivors of every part are then gathered column-wise
// into one output sized exactly, so each surviving row is copied once. The
// result is byte-identical at any worker count. Only a filtering call
// over at least one part (prog != nil) counts as a filter operator in the
// engine metrics.
func FilterTables(name string, schema *predicate.Schema, parts []*Table, prog *predicate.Program, par int) *Table {
	if prog != nil && len(parts) > 0 {
		defer observeOp(opFilter, time.Now())
	}
	out := NewTable(name, schema)
	rows := make([][]int, len(parts))
	for i, t := range parts {
		if prog == nil {
			out.nRows += t.nRows
			continue
		}
		rows[i] = selectedRows(selectProgram(t, prog, par), par)
		mRowsScanned.Add(uint64(t.nRows))
		mRowsKept.Add(uint64(len(rows[i])))
		out.nRows += len(rows[i])
	}
	off := 0
	for i, t := range parts {
		off += gatherInto(out, t, out.order, rows[i], off, par)
	}
	return out
}

// selectedRows converts an acceptance bitmap into the (ascending) list of
// selected row indices: per-morsel counts, an exclusive prefix sum, then a
// parallel fill of each morsel's slot range.
func selectedRows(sel []bool, par int) []int {
	n := len(sel)
	counts := make([]int, morselCount(n))
	forEachMorsel(n, par, func(_, m, lo, hi int) {
		c := 0
		for _, ok := range sel[lo:hi] {
			if ok {
				c++
			}
		}
		counts[m] = c
	})
	total := 0
	for m, c := range counts {
		counts[m] = total
		total += c
	}
	rows := make([]int, total)
	forEachMorsel(n, par, func(_, m, lo, hi int) {
		idx := counts[m]
		for i := lo; i < hi; i++ {
			if sel[i] {
				rows[idx] = i
				idx++
			}
		}
	})
	return rows
}

// gatherInto copies the named columns of src, restricted to rows (all rows
// in order when rows is nil), into the same-named columns of out starting
// at output row off, splitting the copy across par workers, and returns
// the number of rows copied. out's row count must already be set; a column
// of out is sized to it on first touch, and its maxAbs becomes the maximum
// over its sources (conservative: a subset's max cannot exceed its
// source's). Each worker writes a disjoint output range, so the result is
// independent of scheduling.
func gatherInto(out, src *Table, cols []string, rows []int, off, par int) int {
	n := len(rows)
	if rows == nil {
		n = src.nRows
	}
	type colCopy struct {
		src, dst *colData
	}
	copies := make([]colCopy, 0, len(cols))
	for _, name := range cols {
		cd := src.cols[name]
		oc := out.cols[name]
		oc.maxAbs = max(oc.maxAbs, cd.maxAbs)
		if cd.typ.Integral() && len(oc.ints) != out.nRows {
			oc.ints = make([]int64, out.nRows)
		}
		if !cd.typ.Integral() && len(oc.reals) != out.nRows {
			oc.reals = make([]float64, out.nRows)
		}
		if cd.nulls != nil && len(oc.nulls) != out.nRows {
			oc.nulls = make([]bool, out.nRows)
		}
		copies = append(copies, colCopy{src: cd, dst: oc})
	}
	forEachMorsel(n, par, func(_, _, lo, hi int) {
		for _, cc := range copies {
			if rows == nil {
				if cc.src.typ.Integral() {
					copy(cc.dst.ints[off+lo:off+hi], cc.src.ints[lo:hi])
				} else {
					copy(cc.dst.reals[off+lo:off+hi], cc.src.reals[lo:hi])
				}
				if cc.src.nulls != nil {
					copy(cc.dst.nulls[off+lo:off+hi], cc.src.nulls[lo:hi])
				}
				continue
			}
			if cc.src.typ.Integral() {
				dst, srcInts := cc.dst.ints[off:], cc.src.ints
				for i := lo; i < hi; i++ {
					dst[i] = srcInts[rows[i]]
				}
			} else {
				dst, srcReals := cc.dst.reals[off:], cc.src.reals
				for i := lo; i < hi; i++ {
					dst[i] = srcReals[rows[i]]
				}
			}
			if cc.src.nulls != nil {
				dst, srcNulls := cc.dst.nulls[off:], cc.src.nulls
				for i := lo; i < hi; i++ {
					dst[i] = srcNulls[rows[i]]
				}
			}
		}
	})
	return n
}

// HashJoin performs an inner equi-join of l and r on integral key columns,
// serially. The output schema is the concatenation of both schemas (column
// names must be disjoint). NULL keys never match, per SQL semantics.
func HashJoin(l, r *Table, lkey, rkey string) (*Table, error) {
	out, _, err := HashJoinWherePar(l, r, lkey, rkey, nil, nil, 1)
	return out, err
}

// JoinStats reports the logical join input sizes: rows per side that
// passed the fused predicates (if any) and carried a non-NULL key.
type JoinStats struct {
	LeftIn, RightIn int
}

// HashJoinWherePar is HashJoin with per-side residual predicates fused
// into the build and probe phases, on par workers (par <= 0 means
// DefaultParallelism). Rows failing their side's predicate are skipped
// before touching the hash table, and no intermediate filtered table is
// materialized. This is how real engines execute a pushed-down filter, and
// it is what makes predicate pushdown pay off: the saved work is hash
// probes and output materialization, while the added work is one predicate
// evaluation per scanned row.
//
// The build side is hash-partitioned into per-worker maps (each partition
// owner scans the build column and keeps only its keys, so no insert ever
// races), probe morsels run concurrently against the read-only partitions
// into per-morsel match buffers, and the buffers are stitched back in
// morsel order — exactly the serial probe order — so the output is
// byte-identical at any worker count.
func HashJoinWherePar(l, r *Table, lkey, rkey string, lpred, rpred predicate.Predicate, par int) (*Table, JoinStats, error) {
	defer observeOp(opJoin, time.Now())
	var stats JoinStats
	lc, ok := l.schema.Lookup(lkey)
	if !ok || !lc.Type.Integral() {
		return nil, stats, fmt.Errorf("engine: bad left join key %s.%s", l.Name, lkey)
	}
	rc, ok := r.schema.Lookup(rkey)
	if !ok || !rc.Type.Integral() {
		return nil, stats, fmt.Errorf("engine: bad right join key %s.%s", r.Name, rkey)
	}
	outSchema := predicate.Merge(l.schema, r.schema)
	out := NewTable(l.Name+"_"+r.Name, outSchema)

	// Build on the smaller side.
	build, probe, buildKey, probeKey := l, r, lkey, rkey
	buildPred, probePred := lpred, rpred
	buildLeft := true
	if r.nRows < l.nRows {
		build, probe, buildKey, probeKey = r, l, rkey, lkey
		buildPred, probePred = rpred, lpred
		buildLeft = false
	}
	var buildSel, probeSel []bool
	if buildPred != nil {
		buildSel = SelectionPar(build, buildPred, par)
	}
	if probePred != nil {
		probeSel = SelectionPar(probe, probePred, par)
	}

	// Build phase: P per-partition hash maps, each owned by one task. A
	// partition's owner scans the whole build column but inserts only keys
	// hashing to its partition — the scan is a cheap sequential read, and
	// splitting inserts (the expensive part) P ways is what scales. Rows
	// enter each key's bucket in ascending order, matching the serial map.
	nPart := partitionCount(par, build.nRows)
	mask := uint64(nPart - 1)
	type partition struct {
		index map[int64][]int
		in    int
	}
	parts := make([]partition, nPart)
	bk := build.cols[buildKey]
	forEachTask(nPart, par, func(p int) {
		index := make(map[int64][]int, build.nRows/nPart+1)
		in := 0
		for row := 0; row < build.nRows; row++ {
			if bk.nulls != nil && bk.nulls[row] {
				continue
			}
			if buildSel != nil && !buildSel[row] {
				continue
			}
			k := bk.ints[row]
			if mixHash(uint64(k))&mask != uint64(p) {
				continue
			}
			in++
			index[k] = append(index[k], row)
		}
		parts[p] = partition{index: index, in: in}
	})
	buildIn := 0
	for p := range parts {
		buildIn += parts[p].in
	}

	// Probe phase: morsels of the probe side run concurrently, each
	// accumulating its matches in its own buffer slot; concatenating the
	// slots in morsel order reproduces the serial probe order.
	type matches struct {
		lrows, rrows []int
		in           int
	}
	bufs := make([]matches, morselCount(probe.nRows))
	pk := probe.cols[probeKey]
	forEachMorsel(probe.nRows, par, func(_, m, lo, hi int) {
		var mb matches
		for row := lo; row < hi; row++ {
			if pk.nulls != nil && pk.nulls[row] {
				continue
			}
			if probeSel != nil && !probeSel[row] {
				continue
			}
			mb.in++
			k := pk.ints[row]
			for _, brow := range parts[mixHash(uint64(k))&mask].index[k] {
				if buildLeft {
					mb.lrows = append(mb.lrows, brow)
					mb.rrows = append(mb.rrows, row)
				} else {
					mb.lrows = append(mb.lrows, row)
					mb.rrows = append(mb.rrows, brow)
				}
			}
		}
		bufs[m] = mb
	})
	probeIn, total := 0, 0
	for m := range bufs {
		probeIn += bufs[m].in
		total += len(bufs[m].lrows)
	}
	lrows := make([]int, 0, total)
	rrows := make([]int, 0, total)
	for m := range bufs {
		lrows = append(lrows, bufs[m].lrows...)
		rrows = append(rrows, bufs[m].rrows...)
	}
	if buildLeft {
		stats.LeftIn, stats.RightIn = buildIn, probeIn
	} else {
		stats.LeftIn, stats.RightIn = probeIn, buildIn
	}
	// Materialize column-wise from each side's backing arrays.
	out.nRows = total
	gatherInto(out, l, l.order, lrows, 0, par)
	gatherInto(out, r, r.order, rrows, 0, par)
	return out, stats, nil
}

// partitionCount picks the build-partition count: the smallest power of two
// covering the worker count (the partition mask needs a power of two),
// capped so tiny builds do not shatter into empty maps.
func partitionCount(par, buildRows int) int {
	par = normalizeParallelism(par, buildRows)
	n := 1
	// cancel: doubles to the worker count, at most log2(maxPartitions) steps.
	for n < par {
		n *= 2
	}
	const maxPartitions = 64
	if n > maxPartitions {
		n = maxPartitions
	}
	return n
}

// ProjectPar returns a table with only the named columns, on par workers
// (par <= 0 means DefaultParallelism). Projection never touches row
// values: it reuses the columnar gather path to copy each kept column's
// backing arrays, morsel-parallel, instead of materializing rows one at a
// time.
func ProjectPar(t *Table, cols []string, par int) (*Table, error) {
	defer observeOp(opProject, time.Now())
	var sub []predicate.Column
	for _, name := range cols {
		c, ok := t.schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown column %q in projection", name)
		}
		sub = append(sub, c)
	}
	out := NewTable(t.Name, predicate.NewSchema(sub...))
	out.nRows = t.nRows
	gatherInto(out, t, cols, nil, 0, par)
	return out, nil
}
