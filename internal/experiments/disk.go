package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sia/internal/cache"
	"sia/internal/core"
	"sia/internal/engine"
	"sia/internal/plan"
	"sia/internal/predicate"
	"sia/internal/storage"
	"sia/internal/tpch"
	"sia/internal/workload"
)

// DefaultSegmentRows is the ingestion batch size of the disk experiment:
// each segment file holds this many rows (except the final remainder).
const DefaultSegmentRows = 8192

// DiskProbe records the streaming-ingestion half of the experiment: after
// the measurements, a segment append must invalidate cached synthesis
// entries conditioned on the appended table's columns and force a fresh
// CEGIS run.
type DiskProbe struct {
	InvalidatedEntries int  `json:"invalidated_entries"`
	ResynthesisMiss    bool `json:"resynthesis_miss"`
}

// DiskReport is the full fig9-disk result.
type DiskReport struct {
	SegmentRows int             `json:"segment_rows"`
	Summaries   []Fig9Summary   `json:"summaries"`
	Probe       DiskProbe       `json:"probe"`
	Records     []RuntimeRecord `json:"records"`
}

// sortByColumn returns t's rows stably reordered by ascending col — the
// experiment's stand-in for time-ordered streaming ingestion, which is
// what gives date zone maps their narrow per-segment ranges.
func sortByColumn(t *engine.Table, col string) (*engine.Table, error) {
	vals := t.Ints(col)
	idx := make([]int, t.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	return engine.ReorderRows(t, idx, 0)
}

// ingest writes t into dir as segments of segRows rows each and returns
// the opened segment table.
func ingest(dir string, t *engine.Table, segRows int) (*storage.SegmentTable, error) {
	st, err := storage.Open(dir, t.Name, t.Schema())
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < t.NumRows(); lo += segRows {
		hi := lo + segRows
		if hi > t.NumRows() {
			hi = t.NumRows()
		}
		if err := st.AppendRange(t, lo, hi); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Fig9Disk runs the Fig. 9 loop over disk: at each scale factor the TPC-H
// tables are sorted by their date column (time-ordered ingestion) and
// written as zone-mapped segment files, so the original plan's lineitem
// scan reads every segment while the Sia-rewritten plan's synthesized
// lineitem predicate prunes segments before their pages are read. Every
// query's original result is checked against the in-memory engine and
// every rewritten result against the original, by digest. A streaming
// append probe runs afterwards.
func Fig9Disk(cfg Config) (*DiskReport, error) {
	cfg = cfg.withDefaults()
	if cfg.SegmentRows <= 0 {
		cfg.SegmentRows = DefaultSegmentRows
	}
	queries := workload.Generate(workload.Config{N: cfg.Queries, Seed: cfg.Seed})

	root, err := os.MkdirTemp("", "sia-fig9-disk-*")
	if err != nil {
		return nil, fmt.Errorf("experiments: disk experiment scratch dir: %w", err)
	}
	defer os.RemoveAll(root)

	var lineitemDisk *storage.SegmentTable // the latest scale factor's, for the probe
	records, err := runFig9(cfg, queries, func(sfIdx int, orders, lineitem *engine.Table) (*plan.Catalog, error) {
		cat := plan.NewCatalog()
		for _, t := range []struct {
			table   *engine.Table
			dateCol string
		}{{orders, "o_orderdate"}, {lineitem, "l_shipdate"}} {
			sorted, err := sortByColumn(t.table, t.dateCol)
			if err != nil {
				return nil, err
			}
			dir := filepath.Join(root, fmt.Sprintf("sf%d", sfIdx), t.table.Name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			st, err := ingest(dir, sorted, cfg.SegmentRows)
			if err != nil {
				return nil, err
			}
			// The disk read path must reproduce the in-memory table exactly.
			back, err := st.ScanFilter(nil, cfg.Parallelism)
			if err != nil {
				return nil, err
			}
			if !engine.TablesEqual(sorted, back) {
				return nil, fmt.Errorf("experiments: disk table %s differs from in-memory data", t.table.Name)
			}
			cat.AddSource(st)
			if t.table == lineitem {
				lineitemDisk = st
			}
		}
		return cat, nil
	})
	if err != nil {
		return nil, err
	}

	// The probe synthesizes the first rewritten query of the last scale
	// factor again.
	var probeQuery *workload.Query
	for i, r := range records[len(records)-len(queries):] {
		if r.Rewritten {
			probeQuery = &queries[i]
			break
		}
	}
	probe, err := runDiskProbe(lineitemDisk, probeQuery, tpch.JoinSchema(), cfg)
	if err != nil {
		return nil, err
	}
	return &DiskReport{SegmentRows: cfg.SegmentRows, Summaries: Summarize(records), Probe: probe, Records: records}, nil
}

// runDiskProbe exercises streaming ingestion against the synthesis cache:
// a cached result over lineitem columns must be invalidated by a segment
// append and re-synthesized from scratch afterwards.
func runDiskProbe(lineitemDisk *storage.SegmentTable, q *workload.Query, schema *predicate.Schema, cfg Config) (DiskProbe, error) {
	var probe DiskProbe
	if lineitemDisk == nil || q == nil {
		return probe, nil
	}
	synth := cache.NewSynthesizer(64)
	invalidated := 0
	lineitemDisk.OnAppend(func(cols []string) { invalidated += synth.InvalidateColumns(cols) })

	opts := core.PresetSIA()
	opts.MaxIterations = cfg.MaxIterations
	cols := lineitemCols(q.Pred)
	run := func() (bool, error) {
		_, cached, err := synth.Synthesize(context.Background(), q.Pred, cols, schema, opts)
		return cached, err
	}
	if _, err := run(); err != nil { // cold fill
		return probe, err
	}
	if cached, err := run(); err != nil {
		return probe, fmt.Errorf("experiments: probe re-synthesis: %w", err)
	} else if !cached {
		return probe, fmt.Errorf("experiments: probe expected a cache hit before the append")
	}

	// Stream one more batch into lineitem: entries conditioned on its
	// columns must go.
	batch, err := lineitemDisk.ScanFilter(nil, cfg.Parallelism)
	if err != nil {
		return probe, err
	}
	n := batch.NumRows()
	if n > 64 {
		n = 64
	}
	if err := lineitemDisk.AppendRange(batch, 0, n); err != nil {
		return probe, err
	}
	probe.InvalidatedEntries = invalidated

	cached, err := run()
	if err != nil {
		return probe, err
	}
	probe.ResynthesisMiss = !cached
	return probe, nil
}
