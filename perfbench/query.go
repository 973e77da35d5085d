package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/engine"
	"sia/internal/plan"
	"sia/internal/predicate"
	"sia/internal/sql"
	"sia/internal/storage"
	"sia/internal/tpch"
	"sia/internal/workload"
)

// Sizes of the query workload. The scale keeps one Sia/plain pair near
// tens of milliseconds on a small machine, so a 10 s run yields a few
// hundred samples per plan.
const (
	queryScale    = 2.0 // tpch units: 30k orders, ~120k lineitem rows
	querySegRows  = 8192
	queryCount    = 144
	queryAggShare = 0.3 // share of queries that aggregate (COUNT(*) GROUP BY o_orderdate)
	// setupReps is how many times a run sets up, reporting the median
	// (two for query, whose set-up synthesizes every predicate).
	setupReps      = 5
	querySetupReps = 2
	// synthBudget caps every synthesis call, in process and in siad
	// (core.Options.Timeout and SolverTimeout). Uncapped, a tenth of the
	// calls take seconds, so a run would hold too few calls for a p90 and
	// set-up would dominate; a tight cap also keeps the capped calls close
	// to the converged ones, so medians do not jump between the two.
	synthBudget = 20 * time.Millisecond
	// querySynthBudget caps the query workload's set-up synthesis, which
	// is outside the timed region, so more of the queries get a rewrite.
	querySynthBudget = 100 * time.Millisecond
	validityRows     = 2000
)

// benchQuery is one generated input: the SQL text, and the predicate and
// target columns handed to synthesis.
type benchQuery struct {
	ID   int
	SQL  string
	Pred predicate.Predicate
	Cols []string
	Agg  bool
}

// genQueries draws the query set from workload.Generate(seed). A fixed
// share of the queries, chosen by the seed, is turned into COUNT(*) …
// GROUP BY o_orderdate so aggregation is measured too. The share is exact,
// not drawn per query, so the mix of the two shapes is the same at every
// seed.
func genQueries(seed int64, n int) []benchQuery {
	gen := workload.Generate(workload.Config{N: n, Seed: seed})
	agg := map[int]bool{}
	for _, i := range rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(len(gen))[:int(math.Round(queryAggShare*float64(len(gen))))] {
		agg[i] = true
	}
	var out []benchQuery
	for i, q := range gen {
		bq := benchQuery{ID: q.ID, SQL: q.SQL(), Pred: q.Pred, Cols: lineitemCols(q.Pred)}
		if agg[i] {
			bq.Agg = true
			bq.SQL = strings.Replace(bq.SQL, "SELECT *", "SELECT COUNT(*)", 1) + " GROUP BY o_orderdate"
		}
		out = append(out, bq)
	}
	return out
}

// lineitemCols returns the lineitem date columns p mentions, in the fixed
// workload order.
func lineitemCols(p predicate.Predicate) []string {
	used := map[string]bool{}
	for _, c := range predicate.Columns(p) {
		used[c] = true
	}
	var out []string
	for _, c := range workload.LineitemDateCols {
		if used[c] {
			out = append(out, c)
		}
	}
	return out
}

// synthOptions is the SIA preset with a wall-clock cap.
func synthOptions(budget time.Duration) core.Options {
	opts := core.PresetSIA()
	opts.Timeout = budget
	opts.SolverTimeout = budget
	return opts
}

// dataset is TPC-H written as date-sorted, zone-mapped segment files, with
// the same rows kept in memory as the reference engine's input.
type dataset struct {
	dir              string
	orders, lineitem *engine.Table // sorted by date; lineitem holds every generated row
	ordersDisk       *storage.SegmentTable
	lineitemDisk     *storage.SegmentTable
	lineitemWritten  int
}

// sortByColumn reorders t by ascending col: time-ordered ingestion, which
// gives the date zone maps narrow per-segment ranges.
func sortByColumn(t *engine.Table, col string) (*engine.Table, error) {
	vals := t.Ints(col)
	idx := make([]int, t.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	return engine.ReorderRows(t, idx, 0)
}

// newDataset generates TPC-H at scale, sorts it by date and writes orders
// plus the first lineitemRows lineitem rows (all when negative) as
// segments of segRows rows under dir.
func newDataset(dir string, scale float64, seed int64, segRows, lineitemRows int) (*dataset, error) {
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: scale, Seed: seed})
	orders, err := sortByColumn(orders, "o_orderdate")
	if err != nil {
		return nil, err
	}
	if lineitem, err = sortByColumn(lineitem, "l_shipdate"); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d := &dataset{dir: dir, orders: orders, lineitem: lineitem}
	if d.ordersDisk, err = openTable(filepath.Join(dir, "orders"), orders); err != nil {
		return nil, err
	}
	if d.lineitemDisk, err = openTable(filepath.Join(dir, "lineitem"), lineitem); err != nil {
		return nil, err
	}
	for lo := 0; lo < orders.NumRows(); lo += segRows {
		if err := d.ordersDisk.AppendRange(orders, lo, min(lo+segRows, orders.NumRows())); err != nil {
			return nil, err
		}
	}
	if lineitemRows < 0 {
		lineitemRows = lineitem.NumRows()
	}
	for d.lineitemWritten < lineitemRows {
		if err := d.appendLineitem(min(segRows, lineitemRows-d.lineitemWritten)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func openTable(dir string, t *engine.Table) (*storage.SegmentTable, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return storage.Open(dir, t.Name, t.Schema())
}

// appendLineitem writes the next n not-yet-written lineitem rows as one
// segment.
func (d *dataset) appendLineitem(n int) error {
	lo := d.lineitemWritten
	if err := d.lineitemDisk.AppendRange(d.lineitem, lo, lo+n); err != nil {
		return err
	}
	d.lineitemWritten += n
	return nil
}

// memCatalog returns an in-memory catalog holding exactly the rows on disk.
func (d *dataset) memCatalog() (*plan.Catalog, error) {
	li := d.lineitem
	if d.lineitemWritten < li.NumRows() {
		idx := make([]int, d.lineitemWritten)
		for i := range idx {
			idx[i] = i
		}
		var err error
		if li, err = engine.ReorderRows(li, idx, 0); err != nil {
			return nil, err
		}
		li.Name = d.lineitem.Name
	}
	cat := plan.NewCatalog()
	cat.Add(d.orders)
	cat.Add(li)
	return cat, nil
}

func (d *dataset) remove() { os.RemoveAll(d.dir) }

// timedSource is the benchmark's view of a segment table: it implements
// plan.TableSource, forwards to SegmentTable.ScanFilter, and records a
// storage.scan span plus the engine filter time spent inside the scan.
type timedSource struct {
	*storage.SegmentTable
	run *queryRunner
}

func (s *timedSource) ScanFilter(p predicate.Predicate, par int) (*engine.Table, error) {
	r := s.run
	ref := r.cur.begin(r.op, r.execSpan, "storage.scan")
	var eng0 float64
	if ref != nil {
		eng0 = engineSeconds()
	}
	t, err := s.SegmentTable.ScanFilter(p, par)
	if ref != nil {
		r.acct.engineInScan += engineSeconds() - eng0
		r.acct.scan += r.cur.end(ref)
	}
	return t, err
}

// opAccount accumulates, for traced operations, the time attributions
// spans alone cannot make (engine operators run inside plan.execute and
// storage.scan without spans of their own).
type opAccount struct {
	scan         time.Duration // storage.scan spans, filter included
	engineInScan float64       // seconds of engine operators inside scans
	engineInExec float64       // seconds of engine operators inside plan.execute
}

// queryRunner executes benchmark queries as the Sia plan (parse → plan →
// cache → rewrite → execute) or the plain plan (parse → plan → execute).
type queryRunner struct {
	cat    *plan.Catalog
	synth  *cache.Synthesizer
	opts   core.Options
	schema *predicate.Schema
	par    int
	tr     *tracer

	// Set per operation for the scan wrapper.
	cur      *tracer
	op       uint64
	execSpan *spanRef
	acct     opAccount
}

func newQueryRunner(d *dataset, synth *cache.Synthesizer, opts core.Options, tr *tracer) *queryRunner {
	r := &queryRunner{synth: synth, opts: opts, schema: tpch.JoinSchema(), par: runtime.NumCPU(), tr: tr, cur: offTracer}
	r.cat = plan.NewCatalog()
	r.cat.AddSource(&timedSource{SegmentTable: d.ordersDisk, run: r})
	r.cat.AddSource(&timedSource{SegmentTable: d.lineitemDisk, run: r})
	return r
}

// opResult is one executed plan.
type opResult struct {
	table     *engine.Table
	latency   time.Duration
	joinInput int
	storage   storage.CounterSnapshot
	rewritten bool
	cached    bool
	synthesis *core.Result
	parse     time.Duration
	planTime  time.Duration
	lookup    time.Duration
	acct      opAccount
	exec      time.Duration
	allocB    float64
}

// rewrites reports whether a synthesis result rewrites a plan: every valid
// p₁ does, as in plan.SiaRewrite and the fig9-disk experiment, including one
// cut short by the time budget (see cut).
func rewrites(res *core.Result) bool {
	return res != nil && res.Predicate != nil && res.Valid
}

// cut reports whether a synthesis stopped on its time budget (wall clock or
// a solver call), so its p₁, and the plan it rewrites, depend on machine
// speed.
func cut(res *core.Result) bool {
	return res != nil && (res.GaveUp == core.ReasonTimeout || res.GaveUp == core.ReasonSolverBudget)
}

// run executes q once. traced selects whether spans are recorded for this
// operation (the tracer must be on for them to be).
func (r *queryRunner) run(q benchQuery, sia, traced bool) (opResult, error) {
	var out opResult
	tr := r.tr
	if !traced {
		tr = offTracer
	}
	r.cur, r.op, r.acct = tr, tr.newOp(), opAccount{}
	rootName := "bench.plain"
	if sia {
		rootName = "bench.sia"
	}
	before := storage.SnapshotCounters()
	var alloc0 float64
	if tr.on {
		alloc0 = heapAllocs()
	}
	t0 := time.Now()
	root := tr.begin(r.op, nil, rootName)

	ref := tr.begin(r.op, root, "sql.parse")
	parsed, err := sql.Parse(q.SQL, r.cat)
	out.parse = tr.end(ref)
	if err != nil {
		return out, fmt.Errorf("parse query %d: %w", q.ID, err)
	}
	ref = tr.begin(r.op, root, "plan.plan")
	node, err := parsed.Plan(r.cat)
	out.planTime = tr.end(ref)
	if err != nil {
		return out, fmt.Errorf("plan query %d: %w", q.ID, err)
	}
	if sia && len(q.Cols) > 0 {
		ref = tr.begin(r.op, root, "cache.synthesize")
		res, cached, err := r.synth.Synthesize(context.Background(), q.Pred, q.Cols, r.schema, r.opts)
		out.lookup = tr.end(ref)
		if err != nil {
			return out, fmt.Errorf("synthesize query %d: %w", q.ID, err)
		}
		out.cached, out.synthesis = cached, res
		if rewrites(res) {
			node = withConjunct(node, res.Predicate)
			out.rewritten = true
		}
	}
	ref = tr.begin(r.op, root, "plan.pushdown")
	node = plan.PushDownFilters(node)
	tr.end(ref)

	r.execSpan = tr.begin(r.op, root, "plan.execute")
	var eng0 float64
	if r.execSpan != nil {
		eng0 = engineSeconds()
	}
	table, stats, err := plan.ExecuteOpts(node, r.cat, plan.ExecOptions{Parallelism: r.par})
	if r.execSpan != nil {
		r.acct.engineInExec = engineSeconds() - eng0
	}
	out.exec = tr.end(r.execSpan)
	r.execSpan = nil
	tr.end(root)
	out.latency = time.Since(t0)
	if root != nil {
		out.allocB = heapAllocs() - alloc0
	}
	if err != nil {
		return out, fmt.Errorf("execute query %d: %w", q.ID, err)
	}
	out.table, out.joinInput, out.acct = table, stats.JoinInputRows, r.acct
	out.storage = storage.SnapshotCounters().Sub(before)
	return out, nil
}

var offTracer = newTracer(false)

// withConjunct conjoins p to the plan's top filter (the WHERE clause),
// below any aggregation or projection: the Sia rewrite, before pushdown
// moves the synthesized conjunct below the join. Like the fig9-disk
// experiment, it adds p even when the single-sided conjuncts already imply
// it (plan.SiaRewrite drops such a p after a solver check).
func withConjunct(n plan.Node, p predicate.Predicate) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		return &plan.Filter{Pred: predicate.NewAnd(x.Pred, p), Input: x.Input}
	case *plan.Aggregate:
		return &plan.Aggregate{GroupBy: x.GroupBy, Aggs: x.Aggs, Input: withConjunct(x.Input, p)}
	case *plan.Project:
		return &plan.Project{Cols: x.Cols, Input: withConjunct(x.Input, p)}
	default:
		return &plan.Filter{Pred: p, Input: n}
	}
}
