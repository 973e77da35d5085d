package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// segFileExt is the segment file suffix; files are numbered in append
// order and scanned sorted by name, so directory order is ingestion order.
const segFileExt = ".siaseg"

// SegmentTable is a logical table stored as a directory of immutable
// segment files. Streaming ingestion appends whole segments; scans visit
// segments in append order, skipping any whose zone maps refute the
// pushed-down predicate, and keep the survivors in segment order — which
// makes a scan's output row order identical to filtering the in-memory
// concatenation of all segments.
type SegmentTable struct {
	dir    string
	name   string
	schema *predicate.Schema

	mu       sync.RWMutex
	segs     []*Segment
	onAppend []func(cols []string)
}

// Open opens (or initializes, when dir is empty) the segment table named
// name in dir, validating every existing segment file against schema.
func Open(dir, name string, schema *predicate.Schema) (*SegmentTable, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: reading table dir: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == segFileExt {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	st := &SegmentTable{dir: dir, name: name, schema: schema}
	for _, p := range paths {
		seg, err := OpenSegment(p)
		if err != nil {
			return nil, err
		}
		if err := matchSchema(schema, seg.Columns()); err != nil {
			return nil, fmt.Errorf("storage: segment %s: %w", p, err)
		}
		st.segs = append(st.segs, seg)
	}
	return st, nil
}

// matchSchema checks that a segment's catalog is exactly the table schema.
func matchSchema(schema *predicate.Schema, cols []predicate.Column) error {
	want := schema.Columns()
	if len(cols) != len(want) {
		return fmt.Errorf("has %d columns, table schema has %d", len(cols), len(want))
	}
	for i := range want {
		if cols[i] != want[i] {
			return fmt.Errorf("column %d is %+v, table schema has %+v", i, cols[i], want[i])
		}
	}
	return nil
}

// Name returns the logical table name.
func (st *SegmentTable) Name() string { return st.name }

// Schema returns the table schema.
func (st *SegmentTable) Schema() *predicate.Schema { return st.schema }

// NumRows returns the total row count across all segments.
func (st *SegmentTable) NumRows() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, s := range st.segs {
		n += s.NumRows()
	}
	return n
}

// NumSegments returns the number of segments currently in the table.
func (st *SegmentTable) NumSegments() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.segs)
}

// OnAppend registers a hook invoked after every successful append with the
// table's visible-schema column names. The synthesis cache subscribes here
// so results conditioned on the table's data are invalidated the moment
// new rows land.
func (st *SegmentTable) OnAppend(fn func(cols []string)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.onAppend = append(st.onAppend, fn)
}

// Append writes all rows of t as one new segment. t's schema must equal
// the table schema.
func (st *SegmentTable) Append(t *engine.Table) error {
	return st.AppendRange(t, 0, t.NumRows())
}

// AppendRange writes rows [lo, hi) of t as one new segment file, durably
// and atomically, then fires the append hooks. A failed append leaves the
// table unchanged.
func (st *SegmentTable) AppendRange(t *engine.Table, lo, hi int) error {
	if err := matchSchema(st.schema, t.Schema().Columns()); err != nil {
		return fmt.Errorf("storage: appending to %s: %w", st.name, err)
	}
	st.mu.Lock()
	path := filepath.Join(st.dir, fmt.Sprintf("seg-%06d%s", len(st.segs), segFileExt))
	if _, err := WriteSegment(path, t, lo, hi); err != nil {
		st.mu.Unlock()
		return err
	}
	seg, err := OpenSegment(path)
	if err != nil {
		st.mu.Unlock()
		return err
	}
	st.segs = append(st.segs, seg)
	hooks := st.onAppend
	st.mu.Unlock()

	cols := make([]string, 0, len(st.schema.Columns()))
	for _, c := range st.schema.Columns() {
		cols = append(cols, c.Name)
	}
	for _, fn := range hooks {
		fn(cols)
	}
	return nil
}

// ScanFilter scans the table and returns the rows satisfying p (all rows
// when p is nil), evaluated on par workers. p is compiled once per scan;
// segments whose zone maps prove it cannot be TRUE on any row are skipped
// without reading their column pages, the rest are loaded and
// checksum-verified, and one engine.FilterTables call selects and gathers
// the survivors of every loaded segment, in segment order, into one output
// sized exactly. The result is value-identical to engine.FilterPar over the
// in-memory concatenation of every segment. Peak memory is the decoded
// surviving segments plus the output.
func (st *SegmentTable) ScanFilter(p predicate.Predicate, par int) (*engine.Table, error) {
	st.mu.RLock()
	segs := append([]*Segment(nil), st.segs...)
	st.mu.RUnlock()

	var prog *predicate.Program
	if p != nil {
		prog = predicate.Compile(p)
	}
	var parts []*engine.Table
	for _, seg := range segs {
		if !seg.CanMatch(prog) {
			mSegmentsPruned.Inc()
			continue
		}
		t, err := seg.Load(st.name)
		if err != nil {
			return nil, err
		}
		parts = append(parts, t)
	}
	return engine.FilterTables(st.name, st.schema, parts, prog, par), nil
}
