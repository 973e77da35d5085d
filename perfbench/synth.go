package main

import (
	"context"
	"fmt"
	"time"

	"sia/internal/core"
	"sia/internal/predicate"
	"sia/internal/smt"
	"sia/internal/tpch"
	"sia/internal/workload"
)

const (
	synthPool = 800 // predicates generated per run; a run stops long before using them all
	// synthBatch is how many consecutive calls make one timed operation.
	synthBatch = 8
)

// synthCall is one synthesis input: a predicate and a target column set.
type synthCall struct {
	Pred predicate.Predicate
	Cols []string
}

// sweep expands a predicate into one call per non-empty subset of the
// lineitem date columns it mentions (Table 2's sweep).
func sweep(p predicate.Predicate) []synthCall {
	cols := lineitemCols(p)
	var out []synthCall
	for mask := 1; mask < 1<<len(cols); mask++ {
		var sub []string
		for i, c := range cols {
			if mask&(1<<i) != 0 {
				sub = append(sub, c)
			}
		}
		out = append(out, synthCall{Pred: p, Cols: sub})
	}
	return out
}

// runSynth is cold CEGIS: a closed loop with one client calling
// core.SynthesizeContext on distinct inputs, with no result cache. Every
// returned predicate is checked on a data sample.
//
// Latency is timed per batch of synthBatch consecutive calls, the sweeps
// laid end to end. Per single call it is useless as a percentile: close to
// half the calls (subsets with no unsatisfaction tuple) return in well under
// a millisecond and the rest take milliseconds to the budget, so the median
// sits in the gap between the two and jumps from seed to seed. Per predicate
// sweep (1, 3 or 7 calls) it is no better: the median and p75 fall between
// sweep sizes and follow the seed's mix of them (spread 0.18–0.20 over five
// seeds). Throughput and quality count single calls.
func runSynth(cfg config, tr *tracer) (*result, error) {
	pool := synthPool
	if cfg.Toy {
		pool = 4
	}
	type state struct {
		calls  []synthCall
		sample *validitySample
	}
	st, setupS, err := timeSetup(setupReps, func() (*state, func(), error) {
		sample, err := newValiditySample(cfg.Seed, validityRows)
		if err != nil {
			return nil, nil, err
		}
		st := &state{sample: sample}
		for _, q := range workload.Generate(workload.Config{N: pool, Seed: cfg.Seed}) {
			st.calls = append(st.calls, sweep(q.Pred)...)
		}
		return st, func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.Metrics["setup_s"] = setupS
	schema := tpch.JoinSchema()
	opts := synthOptions(synthBudget)

	var lat, latTraced, latUntraced []float64
	var calls, valid, optimal, maxIter, iters, trueS, falseS int
	var gen, learn, validation time.Duration
	snap0 := smt.Snapshot()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		trace := cfg.Trace && i%2 == 0
		ot := offTracer
		if trace {
			ot = tr
		}
		op := ot.newOp()
		var d time.Duration
		ok := true
		for k := 0; k < synthBatch; k++ {
			c := st.calls[(i*synthBatch+k)%len(st.calls)]
			res.Attempted++
			start := time.Now()
			root := ot.begin(op, nil, "bench.synth")
			ref := ot.begin(op, root, "core.synthesize")
			r, err := core.SynthesizeContext(context.Background(), c.Pred, c.Cols, schema, opts)
			ot.end(ref)
			ot.end(root)
			d += time.Since(start)
			if err != nil {
				res.fail("synthesize %v over %v: %v", c.Pred, c.Cols, err)
				ok = false
				continue
			}
			if r.Valid {
				if err := st.sample.check(c.Pred, r.Predicate); err != nil {
					res.fail("%v", err)
					ok = false
					continue
				}
				valid++
			}
			calls++
			if r.Optimal {
				optimal++
			}
			if r.GaveUp == core.ReasonMaxIterations {
				maxIter++
			}
			iters += r.Iterations
			trueS += r.TrueSamples
			falseS += r.FalseSamples
			gen += r.Timing.Generation
			learn += r.Timing.Learning
			validation += r.Timing.Validation
		}
		if !ok {
			continue
		}
		lat = append(lat, ms(d))
		if cfg.Trace {
			if trace {
				latTraced = append(latTraced, ms(d))
			} else {
				latUntraced = append(latUntraced, ms(d))
			}
		}
	}
	elapsed := time.Since(t0)
	snap1 := smt.Snapshot()

	n := float64(max(calls, 1))
	opLatencies(res, lat)
	res.Metrics["valid_frac"] = float64(valid) / n
	res.Samples["synth_calls"] = calls
	res.Info["predicates_generated"] = pool
	res.Info["call_budget_ms"] = ms(synthBudget)
	res.Info["preset"] = fmt.Sprintf("SIA (max %d iterations)", core.PresetSIA().MaxIterations)
	if len(lat)*synthBatch > len(st.calls) {
		res.Info["wrapped"] = "predicates repeated: the QE memo was warm for the repeats"
	}

	if cfg.Trace {
		res.Metrics["core.generation_ms"] = ms(gen) / n
		res.Metrics["core.validation_ms"] = ms(validation) / n
		res.Metrics["core.iterations"] = float64(iters) / n
		res.Metrics["core.true_samples"] = float64(trueS) / n
		res.Metrics["core.false_samples"] = float64(falseS) / n
		res.Metrics["core.gaveup_max_iterations"] = float64(maxIter) / n
		res.Metrics["core.optimal_frac"] = float64(optimal) / n
		res.Metrics["core.calls_per_s"] = float64(calls) / elapsed.Seconds()
		res.Metrics["svm.train_ms"] = ms(learn) / n
		smtLayer(res, snap0, snap1, calls)
		self := tr.selfByLayer("bench.synth")
		nt := float64(max(len(latTraced), 1)) // per batch
		res.Metrics["self.core_ms"] = ms(self["core"]) / nt
		res.Metrics["trace.accounted_frac"] = accountedFrac(tr, "bench.synth")
		res.Metrics["trace.overhead_ms"] = median(latTraced) - median(latUntraced)
	}
	return res, nil
}
