package main

import (
	"fmt"
	"slices"
	"strings"
)

// metricDef is one named metric of the benchmark. The catalog below is the
// single list BENCHMARK.json is checked against (see the tests): end-to-end
// metrics carry the regression bound, per-layer metrics name the end-to-end
// metric and workload they are expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer).
	Bound float64
	// Layer marks a per-layer metric, reported only by traced runs.
	Layer bool
	// Workloads lists the workloads that measure the metric; every
	// workload reports it (see measuredOn).
	Workloads []string
	// Moves names the end-to-end metric(s) the layer metric should move.
	Moves string
	// Exact marks a counter that repeats exactly at a fixed seed as long
	// as no synthesis it depends on stops on its time budget; a run where
	// one does lists the counter as inexact in its report.
	Exact bool
}

var all4 = []string{"synth", "query", "ingest", "serve"}

var catalog = []metricDef{
	// End to end. Every workload reports every one of them, each for its
	// own operation: a batch of 8 synthesis calls (synth), a Sia-plan
	// query (query), an append with the first Sia query after it (ingest),
	// a request at the fixed offered rate (serve).
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Workloads: all4},
	// No latency tail is end to end: every metric here is reported by
	// every workload, and on serve each percentile above about the 60th
	// falls where cache hits give way to misses, so it follows the seed's
	// hit share. Over ten seeds the serve p75 spread 0.16–0.19, p90 0.34,
	// p95 0.19 and the mean 0.18. The report line holds each workload's
	// p75, p90 and p99 with their sample counts.
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: all4},
	// valid_frac is the share of the workload's syntheses that return a
	// valid predicate: a faster solver that gives up sooner shows here.
	// Serve counts each distinct request once (see runServe).
	{Name: "valid_frac", Unit: "fraction", Better: "higher", Bound: 0.2, Workloads: all4},

	// sql and plan.
	layer("sql.parse_us", "us", "lower", "op_ms_p50 on query (expected share under 1%)", false, "query"),
	layer("plan.plan_us", "us", "lower", "op_ms_p50 on query (expected share under 1%)", false, "query"),
	layer("plan.exec_ms", "ms/op", "lower", "op_ms_p50 on query", false, "query"),
	layer("plan.join_input_rows", "count", "lower", "op_ms_p50 on query", true, "query"),
	layer("plan.rewritten", "count", "higher", "op_ms_p50 on query", true, "query"),
	layer("plan.rewrites_slower", "count", "lower", "op_ms_p50 on query", false, "query"),
	// The plain plan is the no-Sia reference the Sia plan is compared to.
	layer("plan.plain_ms", "ms", "lower", "op_ms_p50 on query (the plain plan's own median)", false, "query"),

	// cache.
	layer("cache.lookup_us", "us", "lower", "op_ms_p50 on query", false, "query"),
	layer("cache.hit_ratio", "fraction", "higher", "op_ms_p50 on serve (and serve.max_rps)", false, "query", "serve"),
	layer("cache.evictions", "count", "lower", "op_ms_p50 on serve (and serve.max_rps)", false, "serve"),
	layer("cache.coalesced", "count", "higher", "op_ms_p50 on serve (and serve.max_rps)", false, "serve"),
	layer("cache.invalidations", "1/op", "lower", "op_ms_p50 on ingest", false, "ingest"),

	// core (CEGIS) and svm, from the returned Result.
	layer("core.generation_ms", "ms/op", "lower", "op_ms_p50 on synth (and core.calls_per_s); op_ms_p50 on ingest", false, "synth", "ingest"),
	layer("core.validation_ms", "ms/op", "lower", "op_ms_p50 on synth (and core.calls_per_s); op_ms_p50 on ingest", false, "synth", "ingest"),
	layer("core.iterations", "1/op", "lower", "op_ms_p50 on synth (and core.calls_per_s); op_ms_p50 on ingest", false, "synth", "ingest"),
	layer("core.true_samples", "1/op", "lower", "op_ms_p50 on synth (and core.calls_per_s); op_ms_p50 on ingest", false, "synth", "ingest"),
	layer("core.false_samples", "1/op", "lower", "op_ms_p50 on synth (and core.calls_per_s); op_ms_p50 on ingest", false, "synth", "ingest"),
	layer("core.gaveup_max_iterations", "fraction", "lower", "valid_frac on synth (and core.optimal_frac)", false, "synth"),
	layer("core.optimal_frac", "fraction", "higher", "valid_frac on synth", false, "synth"),
	layer("core.calls_per_s", "1/s", "higher", "op_ms_p50 on synth", false, "synth"),
	layer("svm.train_ms", "ms/op", "lower", "op_ms_p50 on synth", false, "synth"),

	// smt, from smt.Snapshot (in process) or siad's /metrics (serve).
	layer("smt.sat_queries", "1/op", "lower", "op_ms_p50 on synth (and core.calls_per_s; serve.p99_ms on serve)", false, "synth", "serve"),
	layer("smt.model_queries", "1/op", "lower", "op_ms_p50 on synth (and core.calls_per_s; serve.p99_ms on serve)", false, "synth", "serve"),
	layer("smt.eliminations", "1/op", "lower", "op_ms_p50 on synth (and core.calls_per_s; serve.p99_ms on serve)", false, "synth", "serve"),
	layer("smt.sat_s", "s/op", "lower", "op_ms_p50 on synth (and core.calls_per_s; serve.p99_ms on serve)", false, "synth", "serve"),
	layer("smt.model_s", "s/op", "lower", "op_ms_p50 on synth (and core.calls_per_s; serve.p99_ms on serve)", false, "synth", "serve"),
	layer("smt.qe_s", "s/op", "lower", "op_ms_p50 on synth (and core.calls_per_s; serve.p99_ms on serve)", false, "synth", "serve"),
	layer("smt.enumerate_s", "s/op", "lower", "op_ms_p50 on synth (and core.calls_per_s; serve.p99_ms on serve)", false, "synth", "serve"),
	layer("smt.elimination_s", "s/op", "lower", "op_ms_p50 on synth (and core.calls_per_s; serve.p99_ms on serve)", false, "synth", "serve"),
	layer("smt.qe_memo_hit_ratio", "fraction", "higher", "op_ms_p50 on synth and on ingest", false, "synth", "ingest"),
	layer("smt.qe_memo_evictions", "count", "lower", "op_ms_p50 on synth and on ingest", false, "synth", "ingest"),
	layer("smt.intern_hit_ratio", "fraction", "higher", "op_ms_p50 on synth and on ingest", false, "synth", "ingest"),

	// storage.
	layer("storage.scan_ms", "ms/op", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),
	layer("storage.bytes_read", "bytes", "lower", "op_ms_p50 on query (and plan.plain_ms)", true, "query"),
	layer("storage.decode_s", "s/op", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),
	layer("storage.segments_scanned", "count", "lower", "op_ms_p50 on query", true, "query"),
	layer("storage.segments_pruned", "count", "higher", "op_ms_p50 on query", true, "query"),
	layer("storage.pruned_frac", "fraction", "higher", "op_ms_p50 on query", true, "query"),
	layer("storage.append_ms", "ms/op", "lower", "op_ms_p50 on ingest", false, "ingest"),
	// The append tail is dominated by fsync stalls that come in episodes
	// lasting minutes, so across runs it spreads far past any usable bound;
	// it is reported here rather than as an end-to-end metric.
	layer("storage.append_ms_p90", "ms", "lower", "op_ms_p50 on ingest", false, "ingest"),
	layer("storage.bytes_written", "bytes/row", "lower", "op_ms_p50 on ingest", true, "ingest"),

	// engine, from the obs.Default() operator histograms and counters.
	layer("engine.filter_s", "s/op", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),
	layer("engine.join_s", "s/op", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),
	layer("engine.aggregate_s", "s/op", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),
	layer("engine.project_s", "s/op", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),
	layer("engine.rows_kept_ratio", "fraction", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),
	layer("engine.morsels", "1/op", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),

	// Go runtime.
	layer("runtime.alloc_bytes_per_op", "bytes/op", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),
	layer("runtime.gc_cpu_frac", "fraction", "lower", "op_ms_p50 on query (and plan.plain_ms)", false, "query"),

	// serve, from siad's /v1/stats and /metrics and the generator.
	// The latency tail and the capacity the ladder finds are reported here
	// rather than as end-to-end metrics, because across ten seeds they
	// spread beyond any allowed bound. The p99 at the fixed rate is set by
	// the slowest twenty requests of a run, that is by its worst few
	// hundred milliseconds (a CPU-steal burst on a shared VM) and by the
	// seed's slowest misses: spread 0.11–0.61. A 1.5 s rung's verdict turns
	// on whether two slow misses hold both connections at once: spread
	// 0.19–0.29.
	layer("serve.p99_ms", "ms", "lower", "op_ms_p50 on serve (the miss tail above it)", false, "serve"),
	layer("serve.max_rps", "1/s", "higher", "serve.p99_ms on serve (the headroom above the fixed rate)", false, "serve"),
	layer("serve.server_ms", "ms", "lower", "op_ms_p50 on serve (and serve.p99_ms, serve.max_rps)", false, "serve"),
	layer("serve.generator_late_ms", "ms", "lower", "op_ms_p50 on serve (and serve.p99_ms, serve.max_rps)", false, "serve"),
	layer("serve.forwards", "count", "lower", "op_ms_p50 on serve (and serve.p99_ms, serve.max_rps)", false, "serve"),
	layer("serve.local_hits", "count", "higher", "op_ms_p50 on serve (and serve.p99_ms, serve.max_rps)", false, "serve"),
	layer("serve.batched_requests", "count", "higher", "op_ms_p50 on serve (and serve.p99_ms, serve.max_rps)", false, "serve"),
	layer("serve.shed", "count", "lower", "op_ms_p50 on serve (and serve.p99_ms, serve.max_rps)", false, "serve"),

	// Per-layer self time from the benchmark's spans (span duration minus
	// child spans), and what tracing itself costs.
	layer("self.sql_ms", "ms/op", "lower", "op_ms_p50 on query", false, "query"),
	layer("self.plan_ms", "ms/op", "lower", "op_ms_p50 on query", false, "query"),
	layer("self.cache_ms", "ms/op", "lower", "op_ms_p50 on query", false, "query"),
	layer("self.storage_ms", "ms/op", "lower", "op_ms_p50 on query", false, "query"),
	layer("self.engine_ms", "ms/op", "lower", "op_ms_p50 on query", false, "query"),
	layer("self.core_ms", "ms/op", "lower", "op_ms_p50 on synth and on ingest", false, "synth", "ingest"),
	layer("self.serve_ms", "ms/op", "lower", "op_ms_p50 on serve", false, "serve"),
	layer("trace.accounted_frac", "fraction", "higher", "share of the traced operation time the self times above cover", false, all4...),
	layer("trace.overhead_ms", "ms", "lower", "traced minus untraced median operation time", false, all4...),
}

func layer(name, unit, better, moves string, exact bool, workloads ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Layer: true, Workloads: workloads, Moves: moves, Exact: exact}
}

// metricsFor returns the catalog entries a workload measures in one mode.
func metricsFor(workload string, traced bool) []metricDef {
	var out []metricDef
	for _, m := range metricsOf(traced) {
		if m.measuredOn(workload) {
			out = append(out, m)
		}
	}
	return out
}

// metricsOf returns the catalog entries every workload reports in one
// mode: the end-to-end metrics untraced, the per-layer metrics traced.
func metricsOf(traced bool) []metricDef {
	var out []metricDef
	for _, m := range catalog {
		if m.Layer == traced {
			out = append(out, m)
		}
	}
	return out
}

// measuredOn reports whether the workload exercises the metric's layer.
// Elsewhere a per-layer metric is reported as 0: the layer did no work.
func (m metricDef) measuredOn(workload string) bool {
	return slices.Contains(m.Workloads, workload)
}

// catalogMarkdown renders the catalog as the tables of README.md.
func catalogMarkdown() string {
	var sb strings.Builder
	sb.WriteString("| end-to-end metric | unit | better | bound | workloads |\n|---|---|---|---|---|\n")
	for _, m := range catalog {
		if !m.Layer {
			fmt.Fprintf(&sb, "| `%s` | %s | %s | %g | %s |\n", m.Name, m.Unit, m.Better, m.Bound, strings.Join(m.Workloads, ", "))
		}
	}
	sb.WriteString("\n| per-layer metric | unit | measured on | should move | repeats exactly |\n|---|---|---|---|---|\n")
	for _, m := range catalog {
		if m.Layer {
			exact := ""
			if m.Exact {
				exact = "yes"
			}
			fmt.Fprintf(&sb, "| `%s` | %s | %s | %s | %s |\n", m.Name, m.Unit, strings.Join(m.Workloads, ", "), m.Moves, exact)
		}
	}
	return sb.String()
}
