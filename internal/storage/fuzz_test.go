package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// FuzzReadSegment drives both segment readers with hostile input: the
// byte-level DecodeSegment and, through a temp file, the file-level
// OpenSegment+Load the scan runs. The contract under fuzz is the library's
// no-panic guarantee: any byte string either decodes to a table or returns
// an error — structural damage matching ErrCorrupt — the two readers agree
// on which, and on the table, and a *valid* image that decodes must
// re-encode to an equal table (the decoder cannot invent or drop rows).
func FuzzReadSegment(f *testing.F) {
	// Seed with well-formed segments of a few shapes so the fuzzer mutates
	// real structure instead of flailing at the magic check.
	seed := func(rows int, nullable bool) []byte {
		schema := predicate.NewSchema(
			predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
			predicate.Column{Name: "b", Type: predicate.TypeDouble, NotNull: !nullable},
		)
		t := engine.NewTable("t", schema)
		for i := 0; i < rows; i++ {
			b := predicate.RealVal(float64(i) * 1.5)
			if nullable && i%3 == 0 {
				b = predicate.NullValue()
			}
			t.AppendRow(predicate.IntVal(int64(i*7-20)), b)
		}
		buf, _, err := encodeSegment(t, 0, rows)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	f.Add(seed(0, false))
	f.Add(seed(5, false))
	f.Add(seed(64, true))
	f.Add([]byte(segMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fromFile, fileErr := readSegmentFile(t, data)
		tbl, err := DecodeSegment("fuzz", data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeSegment returned a non-corruption error: %v", err)
			}
			if !errors.Is(fileErr, ErrCorrupt) {
				t.Fatalf("DecodeSegment failed (%v) but OpenSegment+Load returned %v", err, fileErr)
			}
			return
		}
		if fileErr != nil {
			t.Fatalf("DecodeSegment succeeded but OpenSegment+Load failed: %v", fileErr)
		}
		if !engine.TablesEqual(tbl, fromFile) {
			t.Fatal("DecodeSegment and OpenSegment+Load decoded different tables")
		}
		// Valid image: re-encoding its table must produce a decodable
		// segment holding equal data.
		buf, _, err := encodeSegment(tbl, 0, tbl.NumRows())
		if err != nil {
			t.Fatalf("re-encoding a decoded table failed: %v", err)
		}
		back, err := DecodeSegment("fuzz", buf)
		if err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if !engine.TablesEqual(tbl, back) {
			t.Fatal("decode → encode → decode changed the data")
		}
	})
}

// readSegmentFile writes data to a temp segment file and reads it back
// with OpenSegment and Load.
func readSegmentFile(t *testing.T, data []byte) (*engine.Table, error) {
	path := filepath.Join(t.TempDir(), "seg-000000"+segFileExt)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(path)
	if err != nil {
		return nil, err
	}
	return seg.Load("fuzz")
}
