package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"sia/internal/cache"
	"sia/internal/engine"
	"sia/internal/plan"
	"sia/internal/sql"
	"sia/internal/tpch"
)

// queryState is the query workload's set-up: segments on disk, the query
// set, a synthesis cache already holding every query's result, and each
// query's reference digest from the in-memory engine.
type queryState struct {
	d       *dataset
	queries []benchQuery
	synth   *cache.Synthesizer
	runner  *queryRunner
	ref     map[int]digest
	// setupFailures are validity or disk-vs-memory violations found while
	// setting up; each counts as a failed operation.
	setupFailures []string
	// cutIDs are the queries whose synthesis stopped on its time budget.
	cutIDs []int
	// synthesized counts the set-up's syntheses, valid those that
	// returned a valid predicate.
	synthesized, valid int
}

func querySizes(toy bool) (scale float64, n int) {
	if toy {
		return 0.2, 6
	}
	return queryScale, queryCount
}

// setupQuery does what the program needs before the first query: TPC-H
// written to segments and every predicate synthesized into the cache.
func setupQuery(cfg config, tr *tracer) (*queryState, error) {
	scale, n := querySizes(cfg.Toy)
	st := &queryState{queries: genQueries(cfg.Seed, n), synth: cache.NewSynthesizer(0), ref: map[int]digest{}}
	d, err := newDataset(filepath.Join(cfg.OutDir, "data", "query"), scale, cfg.Seed, querySegRows, -1)
	if err != nil {
		return nil, err
	}
	st.d = d
	st.runner = newQueryRunner(d, st.synth, synthOptions(querySynthBudget), tr)
	schema := tpch.JoinSchema()
	for _, q := range st.queries {
		if len(q.Cols) == 0 {
			continue
		}
		res, _, err := st.synth.Synthesize(context.Background(), q.Pred, q.Cols, schema, st.runner.opts)
		if err != nil {
			return nil, fmt.Errorf("synthesize query %d: %w", q.ID, err)
		}
		if cut(res) {
			st.cutIDs = append(st.cutIDs, q.ID)
		}
		st.synthesized++
		if rewrites(res) {
			st.valid++
		}
	}
	return st, nil
}

// checkQueryState prepares the checks, outside the timed set-up: the disk
// read path must reproduce the in-memory tables exactly, every cached p₁
// must hold on the data sample, and each query's reference digest comes
// from the in-memory engine.
func checkQueryState(cfg config, st *queryState) error {
	d := st.d
	for name, t := range map[string]*engine.Table{"orders": d.orders, "lineitem": d.lineitem} {
		s, err := st.runner.cat.Source(name)
		if err != nil {
			return err
		}
		back, err := s.ScanFilter(nil, st.runner.par)
		if err != nil {
			return err
		}
		if tableDigest(back) != tableDigest(t) {
			st.setupFailures = append(st.setupFailures, fmt.Sprintf("disk table %s differs from the in-memory table", name))
		}
	}
	sample, err := newValiditySample(cfg.Seed, validityRows)
	if err != nil {
		return err
	}
	mem, err := d.memCatalog()
	if err != nil {
		return err
	}
	schema := tpch.JoinSchema()
	for _, q := range st.queries {
		if len(q.Cols) > 0 {
			// A cache hit: the set-up put every result there.
			res, _, err := st.synth.Synthesize(context.Background(), q.Pred, q.Cols, schema, st.runner.opts)
			if err != nil {
				return fmt.Errorf("synthesize query %d: %w", q.ID, err)
			}
			if rewrites(res) {
				if err := sample.check(q.Pred, res.Predicate); err != nil {
					st.setupFailures = append(st.setupFailures, fmt.Sprintf("query %d: %v", q.ID, err))
				}
			}
		}
		t, err := executeSQL(q.SQL, mem, st.runner.par)
		if err != nil {
			return err
		}
		st.ref[q.ID] = tableDigest(t)
	}
	return nil
}

// executeSQL runs the plain plan of stmt against cat.
func executeSQL(stmt string, cat *plan.Catalog, par int) (*engine.Table, error) {
	parsed, err := sql.Parse(stmt, cat)
	if err != nil {
		return nil, err
	}
	node, err := parsed.Plan(cat)
	if err != nil {
		return nil, err
	}
	t, _, err := plan.ExecuteOpts(plan.PushDownFilters(node), cat, plan.ExecOptions{Parallelism: par})
	return t, err
}

// runQuery is the Fig. 9 workload: a closed loop with one client issuing
// every query as the Sia plan and as the plain plan, checking after each
// pair that both results, and the in-memory engine's, are the same rows.
func runQuery(cfg config, tr *tracer) (*result, error) {
	st, setupS, err := timeSetup(querySetupReps, func() (*queryState, func(), error) {
		st, err := setupQuery(cfg, tr)
		if err != nil {
			return nil, nil, err
		}
		return st, st.d.remove, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.d.remove()
	if err := checkQueryState(cfg, st); err != nil {
		return nil, err
	}
	res := newResult()
	res.Metrics["setup_s"] = setupS
	for _, f := range st.setupFailures {
		res.Attempted++
		res.fail("set-up: %s", f)
	}

	var sia, plain, siaTraced, siaUntraced []float64
	perQuery := map[int][2][]float64{}
	var first struct {
		joinInput, rewritten int
		bytesRead            uint64
		scanned, pruned      uint64
	}
	var traced struct {
		ops, siaOps                int
		parse, planT, lookup       []float64
		scan, execSelf, allocB     float64
		engineInScan, engineInExec float64
	}
	rewritten := map[int]bool{}

	snap0, cache0 := takeSnapshot(), st.synth.Stats()
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	ops := 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, q := range st.queries {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			trace := cfg.Trace && (pass+i)%2 == 0
			var pair [2]opResult
			for k := 0; k < 2; k++ {
				isSia := (k+pass)%2 == 0 // alternate which plan runs first
				res.Attempted++
				ops++
				out, err := st.runner.run(q, isSia, trace)
				if err != nil {
					res.fail("%v", err)
					continue
				}
				if isSia {
					pair[0] = out
				} else {
					pair[1] = out
				}
			}
			a, b := pair[0], pair[1]
			if a.table == nil || b.table == nil {
				continue
			}
			// Checks, outside the timed region.
			if err := sameDigests(fmt.Sprintf("query %d", q.ID), []string{"in-memory engine", "sia plan", "plain plan"},
				[]digest{st.ref[q.ID], tableDigest(a.table), tableDigest(b.table)}); err != nil {
				res.fail("%v", err)
				continue
			}
			sia = append(sia, ms(a.latency))
			plain = append(plain, ms(b.latency))
			pq := perQuery[q.ID]
			pq[0], pq[1] = append(pq[0], ms(a.latency)), append(pq[1], ms(b.latency))
			perQuery[q.ID] = pq
			if pass == 0 {
				first.joinInput += a.joinInput
				if a.rewritten {
					first.rewritten++
					rewritten[q.ID] = true
				}
				first.bytesRead += a.storage.BytesRead + b.storage.BytesRead
				first.scanned += a.storage.SegmentsScanned
				first.pruned += a.storage.SegmentsPruned
			}
			if cfg.Trace {
				if trace {
					siaTraced = append(siaTraced, ms(a.latency))
				} else {
					siaUntraced = append(siaUntraced, ms(a.latency))
				}
			}
			if !trace {
				continue
			}
			traced.ops += 2
			traced.scan += ms(a.acct.scan) + ms(b.acct.scan)
			traced.allocB += a.allocB + b.allocB
			traced.siaOps++
			traced.parse = append(traced.parse, float64(a.parse.Microseconds()))
			traced.planT = append(traced.planT, float64(a.planTime.Microseconds()))
			traced.lookup = append(traced.lookup, float64(a.lookup.Nanoseconds())/1e3)
			traced.execSelf += ms(a.exec-a.acct.scan) - 1e3*(a.acct.engineInExec-a.acct.engineInScan)
			traced.engineInScan += a.acct.engineInScan
			traced.engineInExec += a.acct.engineInExec
		}
	}
	snap1, cache1 := takeSnapshot(), st.synth.Stats()

	opLatencies(res, sia)
	res.Metrics["valid_frac"] = ratio(float64(st.valid), float64(st.synthesized))
	res.Metrics["plan.plain_ms"] = median(plain)
	res.Samples["plain_ms"] = len(plain)
	res.Info["queries"] = len(st.queries)
	scale, _ := querySizes(cfg.Toy)
	res.Info["scale_tpch_units"] = scale
	res.Info["segment_rows"] = querySegRows
	res.Info["engine_parallelism"] = st.runner.par
	res.Info["segment_flush"] = "fsync on (tmp + fsync + rename + dir fsync)"
	res.Info["synthesis_budget_s"] = querySynthBudget.Seconds()
	var rewrittenIDs []int
	for _, q := range st.queries {
		if rewritten[q.ID] {
			rewrittenIDs = append(rewrittenIDs, q.ID)
		}
	}
	res.Info["rewritten_ids"] = rewrittenIDs
	res.Info["synthesis_cut_ids"] = st.cutIDs
	// Which plans are rewritten, and with which p₁, repeats exactly only
	// when no synthesis stopped on its time budget.
	if len(st.cutIDs) > 0 {
		for _, m := range metricsFor("query", true) {
			if m.Exact {
				res.Inexact = append(res.Inexact, m.Name)
			}
		}
	}

	hits := float64(cache1.Hits - cache0.Hits)
	res.Info["cache_hit_ratio"] = ratio(hits, hits+float64(cache1.Misses-cache0.Misses)+float64(cache1.Coalesced-cache0.Coalesced))
	if cfg.Trace {
		queryLayers(res, st, snap0, snap1, ops, perQuery, rewritten)
		res.Metrics["plan.join_input_rows"] = float64(first.joinInput)
		res.Metrics["plan.rewritten"] = float64(first.rewritten)
		res.Metrics["storage.bytes_read"] = float64(first.bytesRead)
		res.Metrics["storage.segments_scanned"] = float64(first.scanned)
		res.Metrics["storage.segments_pruned"] = float64(first.pruned)
		res.Metrics["storage.pruned_frac"] = ratio(float64(first.pruned), float64(first.scanned+first.pruned))

		n := float64(max(traced.siaOps, 1))
		res.Metrics["sql.parse_us"] = median(traced.parse)
		res.Metrics["plan.plan_us"] = median(traced.planT)
		res.Metrics["cache.lookup_us"] = median(traced.lookup)
		res.Metrics["plan.exec_ms"] = traced.execSelf / n
		res.Metrics["storage.scan_ms"] = traced.scan / float64(max(traced.ops, 1))
		res.Metrics["runtime.alloc_bytes_per_op"] = traced.allocB / float64(max(traced.ops, 1))

		self := tr.selfByLayer("bench.sia")
		selfMs := func(layer string) float64 { return ms(self[layer]) / n }
		storageSelf := selfMs("storage") - 1e3*traced.engineInScan/n
		engineSelf := 1e3 * traced.engineInExec / n
		planSelf := selfMs("plan") - 1e3*(traced.engineInExec-traced.engineInScan)/n
		res.Metrics["self.sql_ms"] = selfMs("sql")
		res.Metrics["self.plan_ms"] = planSelf
		res.Metrics["self.cache_ms"] = selfMs("cache")
		res.Metrics["self.storage_ms"] = storageSelf
		res.Metrics["self.engine_ms"] = engineSelf
		res.Metrics["trace.accounted_frac"] = accountedFrac(tr, "bench.sia")
		res.Metrics["trace.overhead_ms"] = median(siaTraced) - median(siaUntraced)
		res.Samples["traced_sia_ops"] = traced.siaOps
	}
	return res, nil
}

// queryLayers fills the counter-based per-layer metrics of the query
// workload from the interval between two snapshots.
func queryLayers(res *result, st *queryState, a, b snapshot, ops int, perQuery map[int][2][]float64, rewritten map[int]bool) {
	n := float64(max(ops, 1))
	res.Metrics["cache.hit_ratio"] = res.Info["cache_hit_ratio"].(float64)
	res.Metrics["storage.decode_s"] = (b.decodeS - a.decodeS) / n
	for _, op := range []string{"filter", "join", "aggregate", "project"} {
		res.Metrics["engine."+op+"_s"] = (b.engineS[op] - a.engineS[op]) / n
	}
	res.Metrics["engine.rows_kept_ratio"] = ratio(float64(b.rowsKept-a.rowsKept), float64(b.rowsIn-a.rowsIn))
	res.Metrics["engine.morsels"] = float64(b.morsels-a.morsels) / n
	res.Metrics["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	slower := 0
	for _, q := range st.queries {
		pq := perQuery[q.ID]
		if rewritten[q.ID] && len(pq[0]) > 0 && median(pq[0]) > median(pq[1]) {
			slower++
		}
	}
	res.Metrics["plan.rewrites_slower"] = float64(slower)
}
