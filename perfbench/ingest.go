package main

import (
	"fmt"
	"path/filepath"
	"syscall"
	"time"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/smt"
	"sia/internal/storage"
)

// Sizes of the ingest workload: a preloaded base, then batches appended
// one segment at a time. When the generated rows run out the table is
// rebuilt from the base, outside the timed region.
const (
	ingestScale    = 2.0 // tpch units: 30k orders, ~120k lineitem rows
	ingestBaseRows = 16384
	// ingestBatchRows is large enough that encoding and writing the
	// segment, not the fsync latency alone, sets an append's time.
	ingestBatchRows = 8192
	ingestQueries   = 96
	ingestPerAppend = 1 // Sia queries run after each append
)

// ingestState is the ingest workload's set-up.
type ingestState struct {
	d       *dataset
	runner  *queryRunner
	synth   *cache.Synthesizer
	queries []benchQuery
	sample  *validitySample
	// invalidated counts cache entries dropped by append hooks.
	invalidated int
}

func ingestSizes(toy bool) (scale float64, base, batch int) {
	if toy {
		return 0.1, 2048, 512
	}
	return ingestScale, ingestBaseRows, ingestBatchRows
}

// load (re)builds the base table and wires its append hook to the cache.
func (st *ingestState) load(cfg config, tr *tracer) error {
	scale, base, _ := ingestSizes(cfg.Toy)
	if st.d != nil {
		st.d.remove()
	}
	d, err := newDataset(filepath.Join(cfg.OutDir, "data", "ingest"), scale, cfg.Seed, querySegRows, base)
	if err != nil {
		return err
	}
	st.d = d
	st.runner = newQueryRunner(d, st.synth, synthOptions(synthBudget), tr)
	d.lineitemDisk.OnAppend(func(cols []string) { st.invalidated += st.synth.InvalidateColumns(cols) })
	return nil
}

func setupIngest(cfg config, tr *tracer) (*ingestState, error) {
	st := &ingestState{synth: cache.NewSynthesizer(0)}
	for _, q := range genQueries(cfg.Seed, ingestQueries) {
		if len(q.Cols) > 0 {
			st.queries = append(st.queries, q)
		}
	}
	if cfg.Toy {
		st.queries = st.queries[:min(3, len(st.queries))]
	}
	var err error
	if st.sample, err = newValiditySample(cfg.Seed, validityRows); err != nil {
		return nil, err
	}
	if err := st.load(cfg, tr); err != nil {
		return nil, err
	}
	return st, nil
}

// runIngest interleaves writes with reads: each step appends the next
// time-ordered batch as a segment (which invalidates every cached result
// over lineitem columns), then runs Sia queries that must re-synthesize.
// After every append each query's Sia result is checked against the
// plain plan and the in-memory engine over exactly the rows on disk.
func runIngest(cfg config, tr *tracer) (*result, error) {
	st, setupS, err := timeSetup(setupReps, func() (*ingestState, func(), error) {
		st, err := setupIngest(cfg, tr)
		if err != nil {
			return nil, nil, err
		}
		return st, st.d.remove, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { st.d.remove() }()
	// Start the timed loop with no dirty pages left by set-up or by an
	// earlier process, so their write-back does not stall the first
	// appends' fsyncs.
	syscall.Sync()
	res := newResult()
	res.Metrics["setup_s"] = setupS
	_, _, batch := ingestSizes(cfg.Toy)

	var appendLat, cycles, freshTraced, freshUntraced []float64
	var appendSpan time.Duration
	var appends, tracedAppends, synths, validSynths, reloads int
	var bytesWritten uint64
	var rowsWritten int
	var timing core.Timing
	var iters, trueS, falseS int
	smt0, inval0 := smt.Snapshot(), st.invalidated
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	qi := 0
	for step := 0; time.Now().Before(deadline); step++ {
		if st.d.lineitemWritten >= st.d.lineitem.NumRows() {
			if err := st.load(cfg, tr); err != nil {
				return nil, err
			}
			syscall.Sync()
			reloads++
		}
		trace := cfg.Trace && step%2 == 0
		ot := offTracer
		if trace {
			ot = tr
		}
		op := ot.newOp()
		n := min(batch, st.d.lineitem.NumRows()-st.d.lineitemWritten)
		res.Attempted++
		before := storage.SnapshotCounters()
		t0 := time.Now()
		root := ot.begin(op, nil, "bench.append")
		ref := ot.begin(op, root, "storage.append")
		err := st.d.appendLineitem(n)
		appendSpan += ot.end(ref)
		ot.end(root)
		d := time.Since(t0)
		if err != nil {
			res.fail("append: %v", err)
			continue
		}
		written := storage.SnapshotCounters().Sub(before).BytesWritten
		appendLat = append(appendLat, ms(d))
		appends++
		if trace {
			tracedAppends++
		}
		bytesWritten += written
		rowsWritten += n

		mem, err := st.d.memCatalog()
		if err != nil {
			return nil, err
		}
		cycle, ok := d, true
		for k := 0; k < ingestPerAppend; k++ {
			q := st.queries[qi%len(st.queries)]
			qi++
			res.Attempted++
			a, err := st.runner.run(q, true, trace)
			if err != nil {
				res.fail("%v", err)
				ok = false
				continue
			}
			cycle += a.latency
			// Checks, outside the timed region.
			b, err := st.runner.run(q, false, false)
			if err != nil {
				res.fail("%v", err)
				ok = false
				continue
			}
			ref, err := executeSQL(q.SQL, mem, st.runner.par)
			if err != nil {
				return nil, err
			}
			if err := sameDigests(fmt.Sprintf("query %d after %d appended rows", q.ID, st.d.lineitemWritten),
				[]string{"in-memory engine", "sia plan", "plain plan"},
				[]digest{tableDigest(ref), tableDigest(a.table), tableDigest(b.table)}); err != nil {
				res.fail("%v", err)
				ok = false
				continue
			}
			if r := a.synthesis; r != nil && r.Valid {
				if err := st.sample.check(q.Pred, r.Predicate); err != nil {
					res.fail("query %d: %v", q.ID, err)
					ok = false
					continue
				}
			}
			if cfg.Trace {
				if trace {
					freshTraced = append(freshTraced, ms(a.latency))
				} else {
					freshUntraced = append(freshUntraced, ms(a.latency))
				}
			}
			if r := a.synthesis; r != nil && !a.cached {
				synths++
				if rewrites(r) {
					validSynths++
				}
				timing.Add(r.Timing)
				iters += r.Iterations
				trueS += r.TrueSamples
				falseS += r.FalseSamples
			}
		}
		if ok {
			cycles = append(cycles, ms(cycle))
		}
	}
	smt1 := smt.Snapshot()

	opLatencies(res, cycles)
	res.Metrics["valid_frac"] = ratio(float64(validSynths), float64(synths))
	res.Samples["append_ms"] = len(appendLat)
	res.Samples["fresh_syntheses"] = synths
	res.Info["base_rows"], res.Info["batch_rows"] = ingestBaseRows, batch
	res.Info["table_reloads"] = reloads
	res.Info["segment_flush"] = "fsync on (tmp + fsync + rename + dir fsync)"
	res.Info["synthesis_budget_s"] = synthBudget.Seconds()

	if cfg.Trace {
		ns := float64(max(synths, 1))
		res.Metrics["cache.invalidations"] = float64(st.invalidated-inval0) / float64(max(appends, 1))
		res.Metrics["core.generation_ms"] = ms(timing.Generation) / ns
		res.Metrics["core.validation_ms"] = ms(timing.Validation) / ns
		res.Metrics["core.iterations"] = float64(iters) / ns
		res.Metrics["core.true_samples"] = float64(trueS) / ns
		res.Metrics["core.false_samples"] = float64(falseS) / ns
		res.Metrics["self.core_ms"] = ms(timing.Total()) / ns
		smtLayer(res, smt0, smt1, synths)
		res.Metrics["storage.append_ms"] = ms(appendSpan) / float64(max(tracedAppends, 1))
		res.Metrics["storage.append_ms_p90"] = percentile(appendLat, 0.9)
		res.Metrics["storage.bytes_written"] = ratio(float64(bytesWritten), float64(rowsWritten))
		res.Metrics["trace.accounted_frac"] = accountedFrac(tr, "bench.append", "bench.sia")
		res.Metrics["trace.overhead_ms"] = median(freshTraced) - median(freshUntraced)
	}
	return res, nil
}
