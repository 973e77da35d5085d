package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
	"sia/internal/predtest"
)

// testSchema covers all four column types plus a nullable column.
func testSchema() *predicate.Schema {
	return predicate.NewSchema(
		predicate.Column{Name: "id", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "d", Type: predicate.TypeDate, NotNull: true},
		predicate.Column{Name: "ts", Type: predicate.TypeTimestamp, NotNull: false},
		predicate.Column{Name: "x", Type: predicate.TypeDouble, NotNull: false},
	)
}

// buildTable fills a table with rows rows of deterministic pseudo-random
// data, including NULLs in the nullable columns.
func buildTable(t *testing.T, rows int, seed int64) *engine.Table {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tbl := engine.NewTable("t", testSchema())
	for i := 0; i < rows; i++ {
		ts := predicate.IntVal(r.Int63n(1e9))
		if r.Intn(5) == 0 {
			ts = predicate.NullValue()
		}
		x := predicate.RealVal(r.NormFloat64() * 100)
		if r.Intn(7) == 0 {
			x = predicate.NullValue()
		}
		tbl.AppendRow(
			predicate.IntVal(int64(i)),
			predicate.IntVal(r.Int63n(5000)-2500),
			ts,
			x,
		)
	}
	return tbl
}

func writeTestSegment(t *testing.T, tbl *engine.Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg-000000"+segFileExt)
	if _, err := WriteSegment(path, tbl, 0, tbl.NumRows()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 8, 9, 1000} {
		tbl := buildTable(t, rows, int64(rows)+1)
		path := writeTestSegment(t, tbl)
		seg, err := OpenSegment(path)
		if err != nil {
			t.Fatalf("rows=%d: open: %v", rows, err)
		}
		if seg.NumRows() != rows {
			t.Fatalf("rows=%d: segment reports %d rows", rows, seg.NumRows())
		}
		got, err := seg.Load("t")
		if err != nil {
			t.Fatalf("rows=%d: load: %v", rows, err)
		}
		if !engine.TablesEqual(tbl, got) {
			t.Fatalf("rows=%d: decoded table differs from original", rows)
		}
	}
}

func TestSegmentZoneMapsMatchData(t *testing.T) {
	tbl := buildTable(t, 500, 3)
	path := writeTestSegment(t, tbl)
	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	cols := seg.Columns()
	zones := seg.Zones()
	for i, c := range cols {
		if !c.Type.Integral() {
			continue
		}
		vals := tbl.Ints(c.Name)
		nulls := tbl.Nulls(c.Name)
		var min, max int64
		var nNull uint64
		first := true
		for r := 0; r < tbl.NumRows(); r++ {
			if nulls != nil && nulls[r] {
				nNull++
				continue
			}
			if first || vals[r] < min {
				min = vals[r]
			}
			if first || vals[r] > max {
				max = vals[r]
			}
			first = false
		}
		zm := zones[i]
		if zm.NullCount != nNull {
			t.Errorf("%s: null count %d, want %d", c.Name, zm.NullCount, nNull)
		}
		if !zm.HasValues {
			t.Errorf("%s: zone map claims no values", c.Name)
		}
		if zm.Min != min || zm.Max != max {
			t.Errorf("%s: zone [%d,%d], want [%d,%d]", c.Name, zm.Min, zm.Max, min, max)
		}
	}
}

// corruptions is the table of byte-level mutilations that must every one
// surface as ErrCorrupt — from either OpenSegment or Load — and never as a
// panic.
func TestCorruptSegmentsReturnErrCorrupt(t *testing.T) {
	tbl := buildTable(t, 200, 5)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		openErr bool // corruption must already fail OpenSegment
	}{
		{"truncated header", func(b []byte) []byte { return b[:10] }, true},
		{"truncated mid file", func(b []byte) []byte { return b[:len(b)/2] }, true},
		{"truncated by one byte", func(b []byte) []byte { return b[:len(b)-1] }, true},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, true},
		{"bad end magic", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, true},
		{"header crc flip", func(b []byte) []byte { b[9] ^= 0x01; return b }, true},
		{"footer crc flip", func(b []byte) []byte { b[len(b)-20] ^= 0x01; return b }, true},
		{"header size lie", func(b []byte) []byte {
			// Bump the header row count and re-fix the header CRC, so the
			// checksum passes and only the layout-vs-file-size cross-check
			// can catch the lie.
			rows := binary.LittleEndian.Uint64(b[8:])
			binary.LittleEndian.PutUint64(b[8:], rows+1)
			catalogLen := int(binary.LittleEndian.Uint32(b[20:]))
			crcEnd := headerFixedLen + catalogLen
			binary.LittleEndian.PutUint32(b[crcEnd:], crc32.ChecksumIEEE(b[:crcEnd]))
			return b
		}, true},
		{"page bit flip", func(b []byte) []byte {
			// Flip a value byte in the first column page, far from any
			// header/footer structure.
			b[256] ^= 0x40
			return b
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTestSegment(t, tbl)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			seg, err := OpenSegment(path)
			if tc.openErr {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("OpenSegment error = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenSegment should pass for %s, got %v", tc.name, err)
			}
			if _, err := seg.Load("t"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load error = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestFooterRowCountDisagreement builds a file whose header and footer
// disagree with CRCs *re-fixed*, so only the explicit echo check fires.
func TestFooterRowCountDisagreement(t *testing.T) {
	tbl := buildTable(t, 16, 9)
	path := writeTestSegment(t, tbl)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The footer starts footerLen+trailerLen from the end. Patch its row
	// count echo and recompute the footer CRC stored in the trailer.
	footerLen := int(binary.LittleEndian.Uint32(raw[len(raw)-12:]))
	footerOff := len(raw) - trailerLen - footerLen
	binary.LittleEndian.PutUint64(raw[footerOff:], 17)
	crc := crc32.ChecksumIEEE(raw[footerOff : footerOff+footerLen])
	binary.LittleEndian.PutUint32(raw[len(raw)-trailerLen:], crc)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenSegment error = %v, want ErrCorrupt (row-count disagreement)", err)
	}
}

func TestOpenSegmentMissingFile(t *testing.T) {
	_, err := OpenSegment(filepath.Join(t.TempDir(), "nope"+segFileExt))
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file should be an I/O error, got %v", err)
	}
}

// TestZoneMapSoundness is the pruning safety property over segments that
// went through the file format: for random predicates over random rows, a
// segment whose footer says no row may be TRUE has no row predicate.Eval
// makes TRUE.
func TestZoneMapSoundness(t *testing.T) {
	for trial := int64(0); trial < 300; trial++ {
		g := predtest.NewGen(trial)
		tbl := engine.NewTable("t", g.Schema())
		for _, row := range g.Rows(50) {
			tbl.AppendRow(row...)
		}
		seg, err := OpenSegment(writeTestSegment(t, tbl))
		if err != nil {
			t.Fatal(err)
		}
		p := g.Predicate(3)
		if seg.CanMatch(predicate.Compile(p)) {
			continue
		}
		for row := 0; row < tbl.NumRows(); row++ {
			if predicate.Satisfies(p, tbl.Tuple(row)) {
				t.Fatalf("trial %d: %s pruned the segment, but row %d %v is TRUE",
					trial, p, row, tbl.Tuple(row))
			}
		}
	}
}

// TestScanFilterMatchesInMemory is the end-to-end contract: a SegmentTable
// scan with pruning must return exactly what the in-memory engine returns
// for the same predicate over the concatenated data, and pruning must
// actually fire for a range predicate over clustered data.
func TestScanFilterMatchesInMemory(t *testing.T) {
	schema := predicate.NewSchema(
		predicate.Column{Name: "k", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "v", Type: predicate.TypeInteger, NotNull: false},
	)
	full := engine.NewTable("t", schema)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		v := predicate.IntVal(r.Int63n(100))
		if r.Intn(9) == 0 {
			v = predicate.NullValue()
		}
		full.AppendRow(predicate.IntVal(int64(i)), v) // k clustered by construction
	}

	dir := t.TempDir()
	st, err := Open(dir, "t", schema)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < full.NumRows(); lo += 500 {
		if err := st.AppendRange(full, lo, lo+500); err != nil {
			t.Fatal(err)
		}
	}
	if st.NumSegments() != 8 || st.NumRows() != 4000 {
		t.Fatalf("table has %d segments / %d rows", st.NumSegments(), st.NumRows())
	}

	// k in [1000, 1200): zone maps must confine the scan to segments 2-3.
	p := predicate.NewAnd(
		predicate.Cmp(predicate.CmpGE, predicate.Col("k", predicate.TypeInteger), predicate.IntConst(1000)),
		predicate.Cmp(predicate.CmpLT, predicate.Col("k", predicate.TypeInteger), predicate.IntConst(1200)),
	)
	before := SnapshotCounters()
	got, err := st.ScanFilter(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	delta := SnapshotCounters().Sub(before)
	want := engine.FilterPar(full, p, 1)
	if !engine.TablesEqual(want, got) {
		t.Fatalf("scan result differs from in-memory filter (%d vs %d rows)", got.NumRows(), want.NumRows())
	}
	if delta.SegmentsPruned != 7 || delta.SegmentsScanned != 1 {
		t.Fatalf("pruned %d / scanned %d segments, want 7 / 1", delta.SegmentsPruned, delta.SegmentsScanned)
	}

	// Reopening the directory must see the same data; a nil predicate
	// returns everything.
	st2, err := Open(dir, "t", schema)
	if err != nil {
		t.Fatal(err)
	}
	all, err := st2.ScanFilter(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.TablesEqual(full, all) {
		t.Fatal("full scan after reopen differs from original data")
	}
}

func TestAppendHooksFire(t *testing.T) {
	schema := predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
	)
	st, err := Open(t.TempDir(), "t", schema)
	if err != nil {
		t.Fatal(err)
	}
	var calls [][]string
	st.OnAppend(func(cols []string) { calls = append(calls, cols) })
	tbl := engine.NewTable("t", schema)
	tbl.AppendRow(predicate.IntVal(1))
	if err := st.Append(tbl); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || len(calls[0]) != 1 || calls[0][0] != "a" {
		t.Fatalf("hook calls = %v, want [[a]]", calls)
	}

	// Schema-mismatched appends fail cleanly and fire no hook.
	other := engine.NewTable("u", predicate.NewSchema(
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
	))
	if err := st.Append(other); err == nil {
		t.Fatal("append with wrong schema should fail")
	}
	if len(calls) != 1 {
		t.Fatalf("failed append fired a hook: %v", calls)
	}
}
