// Benchmarks regenerating the paper's tables and figures (one per
// experiment) plus ablations for the design choices DESIGN.md calls out.
// Each benchmark prints its rendered result once via b.Log, so
//
//	go test -bench=. -benchmem
//
// both times the experiments and reproduces their outputs. Benchmarks use
// laptop-scale configurations; cmd/siabench exposes flags for paper scale.
package sia_test

import (
	"sync"
	"testing"

	"sia"
	"sia/internal/core"
	"sia/internal/engine"
	"sia/internal/experiments"
	"sia/internal/maxcompute"
	"sia/internal/predtest"
	"sia/internal/tpch"
)

// benchCfg is shared by the sweep-based benchmarks so the expensive
// synthesis sweep runs once.
var (
	benchCfg = experiments.Config{Queries: 15, ScaleFactors: []float64{0.3, 3}, MaxIterations: 41}

	sweepOnce    sync.Once
	sweepRecords []experiments.RunRecord
	sweepErr     error

	fig9Once    sync.Once
	fig9Records []experiments.RuntimeRecord
	fig9Err     error
)

func sweep(b *testing.B) []experiments.RunRecord {
	b.Helper()
	sweepOnce.Do(func() { sweepRecords, sweepErr = experiments.SynthesisSweep(benchCfg) })
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepRecords
}

func fig9(b *testing.B) []experiments.RuntimeRecord {
	b.Helper()
	fig9Once.Do(func() { fig9Records, fig9Err = experiments.Fig9(benchCfg) })
	if fig9Err != nil {
		b.Fatal(fig9Err)
	}
	return fig9Records
}

// BenchmarkMotivatingExample reproduces §2: the hand-rewritten Q2 vs Q1.
func BenchmarkMotivatingExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.Motivating(1, benchCfg.Parallelism)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderMotivating(m))
		}
	}
}

// BenchmarkTable2Efficacy reproduces Table 2 (valid/optimal counts).
func BenchmarkTable2Efficacy(b *testing.B) {
	records := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(records)
		if i == 0 {
			b.Log("\n" + experiments.RenderTable2(rows))
		}
	}
}

// BenchmarkTable3Efficiency reproduces Table 3 (time breakdown).
func BenchmarkTable3Efficiency(b *testing.B) {
	records := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(records)
		if i == 0 {
			b.Log("\n" + experiments.RenderTable3(rows))
		}
	}
}

// BenchmarkTable4Selectivity reproduces Table 4 (selectivity by outcome).
func BenchmarkTable4Selectivity(b *testing.B) {
	records := fig9(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums := experiments.Summarize(records)
		if i == 0 {
			b.Log("\n" + experiments.RenderFig9(nil, sums))
		}
	}
}

// BenchmarkFig6CaseStudy reproduces Fig. 6 (simulated MaxCompute funnel).
func BenchmarkFig6CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		qs, err := maxcompute.Simulate(maxcompute.Config{N: 500})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.RenderFig6(qs))
		}
	}
}

// BenchmarkFig7Iterations reproduces Fig. 7 (iterations to optimal).
func BenchmarkFig7Iterations(b *testing.B) {
	records := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := experiments.Fig7(records)
		if i == 0 {
			b.Log("\n" + experiments.RenderFig7(f))
		}
	}
}

// BenchmarkFig8Samples reproduces Fig. 8 (sample-count distributions).
func BenchmarkFig8Samples(b *testing.B) {
	records := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := experiments.Fig8(records)
		if i == 0 {
			b.Log("\n" + experiments.RenderFig8(f))
		}
	}
}

// BenchmarkFig9Runtime reproduces Fig. 9 (original vs rewritten runtimes).
func BenchmarkFig9Runtime(b *testing.B) {
	records := fig9(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums := experiments.Summarize(records)
		if i == 0 {
			b.Log("\n" + experiments.RenderFig9(records[:min(8, len(records))], sums))
		}
	}
}

// paperPredicate is the §3.2 walkthrough predicate used by the synthesis
// micro-benchmarks and ablations.
func paperPredicate() (sia.Predicate, *sia.Schema) {
	schema := sia.NewSchema(sia.Int("a1"), sia.Int("a2"), sia.Int("b1"))
	p, err := sia.ParsePredicate("a2 - b1 < 20 AND a1 - a2 < a2 - b1 + 10 AND b1 < 0", schema)
	if err != nil {
		panic(err)
	}
	return p, schema
}

// BenchmarkSynthesizeOneColumn measures a single-column synthesis.
func BenchmarkSynthesizeOneColumn(b *testing.B) {
	p, schema := paperPredicate()
	for i := 0; i < b.N; i++ {
		if _, err := sia.Synthesize(p, []string{"a1"}, schema, sia.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeTwoColumns measures the §3.2 two-column walkthrough.
func BenchmarkSynthesizeTwoColumns(b *testing.B) {
	p, schema := paperPredicate()
	for i := 0; i < b.N; i++ {
		if _, err := sia.Synthesize(p, []string{"a1", "a2"}, schema, sia.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIterative compares the paper's counter-example-guided SIA
// against the one-shot baselines — the central ablation (Tables 1-3 in
// miniature).
func BenchmarkAblationIterative(b *testing.B) {
	p, schema := paperPredicate()
	for _, preset := range []struct {
		name string
		opts core.Options
	}{
		{"SIA", core.PresetSIA()},
		{"SIA_v1", core.PresetSIAV1()},
		{"SIA_v2", core.PresetSIAV2()},
	} {
		b.Run(preset.name, func(b *testing.B) {
			valid := 0
			for i := 0; i < b.N; i++ {
				res, err := core.Synthesize(p, []string{"a1", "a2"}, schema, preset.opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Predicate != nil && res.Valid {
					valid++
				}
			}
			b.ReportMetric(float64(valid)/float64(b.N), "valid/op")
		})
	}
}

// BenchmarkAblationRationalize sweeps the integer-coefficient bound used
// when converting SVM hyperplanes to exact predicates: tighter bounds mean
// cheaper Cooper eliminations but coarser planes.
func BenchmarkAblationRationalize(b *testing.B) {
	p, schema := paperPredicate()
	for _, maxDen := range []int64{2, 8, 32} {
		b.Run(denName(maxDen), func(b *testing.B) {
			optimal := 0
			for i := 0; i < b.N; i++ {
				opts := core.PresetSIA()
				opts.MaxDenominator = maxDen
				res, err := core.Synthesize(p, []string{"a1", "a2"}, schema, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Optimal {
					optimal++
				}
			}
			b.ReportMetric(float64(optimal)/float64(b.N), "optimal/op")
		})
	}
}

func denName(d int64) string {
	switch d {
	case 2:
		return "maxCoeff=2"
	case 8:
		return "maxCoeff=8"
	default:
		return "maxCoeff=32"
	}
}

// BenchmarkEngineJoin measures the raw fused hash join on TPC-H-shaped
// data, the substrate cost underlying Fig. 9.
func BenchmarkEngineJoin(b *testing.B) {
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 1})
	oPred := predtest.MustParse("o_orderdate < DATE '1993-06-01'", tpch.OrdersSchema())
	liPred := predtest.MustParse("l_shipdate < DATE '1993-06-20'", tpch.LineitemSchema())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := engine.HashJoinWherePar(lineitem, orders, "l_orderkey", "o_orderkey", liPred, oPred, 1)
		if err != nil {
			b.Fatal(err)
		}
		if out.NumRows() == 0 {
			b.Fatal("empty join result")
		}
	}
}

// BenchmarkParallelScanJoin measures the morsel-driven engine on the
// Fig. 9-shaped scan+join at SF 3, at 1 and 4 workers. The acceptance
// target is ≥2x at 4 workers; results are byte-identical at any width.
func BenchmarkParallelScanJoin(b *testing.B) {
	orders, lineitem := tpch.Generate(tpch.Config{ScaleFactor: 3})
	oPred := predtest.MustParse("o_orderdate < DATE '1993-06-01'", tpch.OrdersSchema())
	liPred := predtest.MustParse("l_shipdate < DATE '1993-06-20'", tpch.LineitemSchema())
	for _, par := range []int{1, 4} {
		b.Run(parName(par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, _, err := engine.HashJoinWherePar(lineitem, orders, "l_orderkey", "o_orderkey", liPred, oPred, par)
				if err != nil {
					b.Fatal(err)
				}
				if out.NumRows() == 0 {
					b.Fatal("empty join result")
				}
			}
		})
	}
}

func parName(par int) string {
	if par == 1 {
		return "par=1"
	}
	return "par=4"
}
