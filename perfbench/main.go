// Command perfbench is the repository benchmark. It runs one named workload
// against the program's public packages for a fixed time, checks every
// output outside the timed region, and prints one JSON result as the last
// line of standard output:
//
//	perfbench -workload query -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics, taken from spans the benchmark records around
// its calls into each layer and from the counters the program exports.
// Workloads (see BENCHMARK.json for why each exists):
//
//	synth   cold CEGIS over generated predicates (core, smt, svm)
//	query   Fig. 9: Sia plan vs plain plan over zone-mapped segments
//	ingest  segment appends interleaved with Sia queries
//	serve   open-loop traffic against two sharded siad replicas
//
// A detailed report (host block, sample counts, per-op notes) is printed on
// the line before the result and written under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// config is what one benchmark run is told from the command line.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string
	Siad     string
	// Toy shrinks every input so the tests can run each workload quickly.
	Toy bool
}

// result is what a workload hands back: operation counts, metric values
// by catalog name, and the sample count behind each percentile.
type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Samples   map[string]int
	Info      map[string]any
	Failures  []string
	// Inexact names counters marked exact in the catalog that this run
	// cannot vouch for (see the workload).
	Inexact []string
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Samples: map[string]int{}, Info: map[string]any{}}
}

// fail records a failed operation with its reason (the first few reasons
// are kept for the report).
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(cfg config, tr *tracer) (*result, error){
	"synth":  runSynth,
	"query":  runQuery,
	"ingest": runIngest,
	"serve":  runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload: synth, query, ingest or serve")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "measured duration")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.OutDir, "out", ".bench_build", "directory for scratch data, traces and reports")
	fs.StringVar(&cfg.Siad, "siad", "", "siad binary (serve workload)")
	fs.BoolVar(&cfg.Toy, "toy", false, "toy-size inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = trace == 1
	fn, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload synth|query|ingest|serve, -seconds > 0, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	tr := newTracer(cfg.Trace)
	res, err := fn(cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	line, report, err := render(cfg, res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", cfg.Workload, cfg.Seed, trace)
	if cfg.Trace {
		if err := tr.write(filepath.Join(cfg.OutDir, "traces", tag+".jsonl")); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := writeFile(filepath.Join(cfg.OutDir, "results", tag+".json"), report); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "perfbench: failed operation: %s\n", f)
	}
	fmt.Fprintf(stdout, "%s\n%s\n", report, line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// render builds the contract line and the detailed report. The line holds
// every catalog metric of the mode; the workload must have measured each
// one whose layer it exercises, and the others read 0.
func render(cfg config, res *result) (line, report []byte, err error) {
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricOut{}
	for _, m := range metricsOf(cfg.Trace) {
		v, ok := res.Metrics[m.Name]
		if !ok && m.measuredOn(cfg.Workload) {
			return nil, nil, fmt.Errorf("workload %s did not report %s", cfg.Workload, m.Name)
		}
		metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	line, err = json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return nil, nil, err
	}
	exact, inexact := []string{}, []string{}
	for _, m := range metricsFor(cfg.Workload, true) {
		if m.Exact && !slices.Contains(res.Inexact, m.Name) {
			exact = append(exact, m.Name)
		} else if m.Exact || m.Unit == "count" || m.Unit == "1/op" {
			inexact = append(inexact, m.Name)
		}
	}
	report, err = json.Marshal(map[string]any{
		"report":           cfg.Workload,
		"seed":             cfg.Seed,
		"seconds":          cfg.Seconds,
		"traced":           cfg.Trace,
		"host":             hostBlock(),
		"samples":          res.Samples,
		"info":             res.Info,
		"failures":         res.Failures,
		"exact_counters":   exact,
		"inexact_counters": inexact,
	})
	return line, report, err
}

// hostBlock describes the machine and build a result was measured on.
func hostBlock() map[string]any {
	commit := "unknown" // a checkout without version control stamps none
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timeSetup runs setup reps times and returns the last set-up's value and
// the median set-up time in seconds. Earlier set-ups are released with
// their cleanup function before the next starts.
func timeSetup[T any](reps int, setup func() (T, func(), error)) (T, float64, error) {
	var zero T
	var durs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, cleanup, err := setup()
		if err != nil {
			return zero, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		if i == reps-1 {
			return v, median(durs), nil
		}
		cleanup()
	}
	return zero, 0, fmt.Errorf("no set-up ran")
}

// opLatencies records the end-to-end latency metric of a workload's
// operations (in ms), the median, with its sample count and, in the report,
// the tail (see the catalog for why the tail is not an end-to-end metric).
func opLatencies(res *result, xs []float64) {
	res.Metrics["op_ms_p50"] = median(xs)
	res.Samples["op_ms"] = len(xs)
	for _, p := range []float64{0.75, 0.9, 0.99} {
		res.Info[fmt.Sprintf("op_ms_p%.0f", 100*p)] = percentile(xs, p)
	}
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(float64(len(s))*p+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
