package main

import (
	"runtime/metrics"

	"sia/internal/obs"
	"sia/internal/smt"
)

// The engine and storage packages export these instruments on
// obs.Default(); asking the registry for a name it already holds returns
// the same instrument, so the benchmark reads them without new hooks.
var (
	engineOps = func() map[string]*obs.Histogram {
		m := map[string]*obs.Histogram{}
		for _, op := range []string{"filter", "join", "aggregate", "project"} {
			m[op] = obs.Default().Histogram("sia_engine_operator_seconds",
				"Wall time of engine operator invocations, by operator.",
				obs.DurationBuckets(), obs.Label{Key: "op", Value: op})
		}
		return m
	}()
	engineMorsels    = obs.Default().Counter("sia_engine_morsels_scheduled_total", "Morsels dispatched by the parallel scheduler.")
	engineRowsIn     = obs.Default().Counter("sia_engine_rows_scanned_total", "Rows evaluated by filter operators.")
	engineRowsKept   = obs.Default().Counter("sia_engine_rows_kept_total", "Rows accepted by filter operators.")
	storageDecodeSec = obs.Default().Histogram("sia_storage_segment_decode_seconds",
		"Latency of loading a segment's column pages into an engine table.", obs.DurationBuckets())
)

// snapshot is a point-in-time copy of every in-process counter the
// benchmark reads; two snapshots subtract to one interval's activity.
type snapshot struct {
	smt      smt.BenchSnapshot
	decodeS  float64
	engineS  map[string]float64
	morsels  uint64
	rowsIn   uint64
	rowsKept uint64
	gcCPU    float64
	totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot() snapshot {
	s := snapshot{
		smt:      smt.Snapshot(),
		decodeS:  storageDecodeSec.Snapshot().Sum,
		engineS:  map[string]float64{},
		morsels:  engineMorsels.Value(),
		rowsIn:   engineRowsIn.Value(),
		rowsKept: engineRowsKept.Value(),
	}
	for op, h := range engineOps {
		s.engineS[op] = h.Snapshot().Sum
	}
	metrics.Read(runtimeSamples)
	s.gcCPU = runtimeSamples[0].Value.Float64()
	s.totalCPU = runtimeSamples[1].Value.Float64()
	return s
}

// engineSeconds is the summed wall time of every engine operator so far.
func engineSeconds() float64 {
	total := 0.0
	for _, h := range engineOps {
		total += h.Snapshot().Sum
	}
	return total
}

// smtLayer reports the solver metrics of the interval a→b per operation.
func smtLayer(res *result, a, b smt.BenchSnapshot, ops int) {
	n := float64(max(ops, 1))
	res.Metrics["smt.sat_queries"] = float64(b.SatQueries-a.SatQueries) / n
	res.Metrics["smt.model_queries"] = float64(b.ModelQueries-a.ModelQueries) / n
	res.Metrics["smt.eliminations"] = float64(b.Eliminations-a.Eliminations) / n
	for _, kind := range []string{"sat", "model", "qe", "enumerate", "elimination"} {
		res.Metrics["smt."+kind+"_s"] = (b.Query[kind].SumSeconds - a.Query[kind].SumSeconds) / n
	}
	memoHits, memoMiss := float64(b.QEMemoHits-a.QEMemoHits), float64(b.QEMemoMisses-a.QEMemoMisses)
	res.Metrics["smt.qe_memo_hit_ratio"] = ratio(memoHits, memoHits+memoMiss)
	res.Metrics["smt.qe_memo_evictions"] = float64(b.QEMemoEvictions - a.QEMemoEvictions)
	inHits, inMiss := float64(b.InternHits-a.InternHits), float64(b.InternMisses-a.InternMisses)
	res.Metrics["smt.intern_hit_ratio"] = ratio(inHits, inHits+inMiss)
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
