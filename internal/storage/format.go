package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"sia/internal/engine"
	"sia/internal/fsatomic"
	"sia/internal/predicate"
)

// Segment file layout (all integers little-endian):
//
//	┌──────────────────────────────────────────────────────────────┐
//	│ header   magic "SIASEG01" (8) — name + format version        │
//	│          rowCount uint64                                     │
//	│          colCount uint32 · catalogLen uint32                 │
//	│          catalog: per column {nameLen u16, name, type u8,    │
//	│                               notNull u8}                    │
//	│          headerCRC uint32 (CRC-32/IEEE of everything above)  │
//	│          zero padding to an 8-byte boundary                  │
//	├──────────────────────────────────────────────────────────────┤
//	│ pages    one per column, in catalog order, each 8-aligned:   │
//	│          values  rowCount × 8 bytes (int64, or float64 bits) │
//	│          bitmap  ⌈rowCount/8⌉ bytes, nullable columns only   │
//	│                  (bit r&7 of byte r>>3 set ⇔ row r is NULL)  │
//	│          pageCRC uint32 over values+bitmap · pad to 8        │
//	├──────────────────────────────────────────────────────────────┤
//	│ footer   rowCount uint64 (echo — must agree with the header) │
//	│          per column {min u64, max u64, nullCount u64}        │
//	│          (min/max are int64 bits over non-NULL values;       │
//	│           float64 bits for DOUBLE; min>max ⇔ no values)      │
//	│ trailer  footerCRC uint32 · footerLen uint32 ·               │
//	│          end magic "SIASEGZ1" (8)                            │
//	└──────────────────────────────────────────────────────────────┘
//
// The fixed 8-byte stride and 8-aligned page starts make the value arrays
// directly overlayable by an mmap-style reader; every offset is computable
// from the header alone, so the reader seeks straight to any column. The
// trailer sits at a fixed distance from the end of the file, so zone maps
// load with one small read regardless of segment size.
const (
	segMagic    = "SIASEG01"
	segEndMagic = "SIASEGZ1"

	headerFixedLen = 8 + 8 + 4 + 4 // magic, rowCount, colCount, catalogLen
	trailerLen     = 4 + 4 + 8     // footerCRC, footerLen, end magic

	// maxSegmentRows and maxSegmentCols bound what a header may claim
	// before any size arithmetic happens, so a corrupt row count can never
	// drive allocation or overflow the layout computation.
	maxSegmentRows = 1 << 31
	maxSegmentCols = 1 << 12
	maxColNameLen  = 1 << 10
)

// ZoneMap is one column's per-segment statistics: the min/max over its
// non-NULL values and the NULL count. For DOUBLE columns Min and Max hold
// math.Float64bits patterns; for integral columns they are the values
// themselves. HasValues is false when every row is NULL (or the segment is
// empty), in which case Min/Max are meaningless.
type ZoneMap struct {
	Min, Max  int64
	NullCount uint64
	HasValues bool
}

// pageSpec locates one column page inside a segment file.
type pageSpec struct {
	off    int64 // start of the values array (8-aligned)
	valLen int64
	bmLen  int64 // 0 for NOT NULL columns
}

// dataLen returns the CRC-covered byte count (values + bitmap).
func (p pageSpec) dataLen() int64 { return p.valLen + p.bmLen }

// segLayout is the computed geometry of a segment file: where every page
// and the footer live, and the exact total size. It is a pure function of
// (rowCount, catalog), which is what lets the reader cross-check a file's
// actual size against what its header implies.
type segLayout struct {
	rows      int
	cols      []predicate.Column
	pages     []pageSpec
	footerOff int64
	footerLen int64
	size      int64
}

func align8(v int64) int64 { return (v + 7) &^ 7 }

// computeLayout derives the file geometry from the header's claims.
// Bounds on rows and cols are enforced by the header parser, so the
// arithmetic here cannot overflow int64.
func computeLayout(rows int, cols []predicate.Column, headerLen int64) segLayout {
	l := segLayout{rows: rows, cols: cols}
	off := align8(headerLen)
	bmLen := int64(0)
	if rows > 0 {
		bmLen = int64((rows + 7) / 8)
	}
	for _, c := range cols {
		p := pageSpec{off: off, valLen: int64(rows) * 8}
		if !c.NotNull {
			p.bmLen = bmLen
		}
		l.pages = append(l.pages, p)
		off = align8(p.off + p.dataLen() + 4)
	}
	l.footerOff = off
	l.footerLen = 8 + 24*int64(len(cols))
	l.size = l.footerOff + l.footerLen + trailerLen
	return l
}

// corrupt wraps ErrCorrupt with a description of what disagreed.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// encodeSegment serializes rows [lo, hi) of t into the segment format,
// returning the file bytes and the per-column zone maps it embedded.
func encodeSegment(t *engine.Table, lo, hi int) ([]byte, []ZoneMap, error) {
	if lo < 0 || hi < lo || hi > t.NumRows() {
		return nil, nil, fmt.Errorf("storage: row range [%d,%d) outside table of %d rows", lo, hi, t.NumRows())
	}
	cols := t.Schema().Columns()
	if len(cols) == 0 || len(cols) > maxSegmentCols {
		return nil, nil, fmt.Errorf("storage: cannot encode %d columns", len(cols))
	}
	rows := hi - lo

	catalog := make([]byte, 0, 32*len(cols))
	for _, c := range cols {
		if len(c.Name) == 0 || len(c.Name) > maxColNameLen {
			return nil, nil, fmt.Errorf("storage: column name %q out of range", c.Name)
		}
		catalog = binary.LittleEndian.AppendUint16(catalog, uint16(len(c.Name)))
		catalog = append(catalog, c.Name...)
		catalog = append(catalog, byte(c.Type), boolByte(c.NotNull))
	}
	headerLen := int64(headerFixedLen + len(catalog) + 4)
	layout := computeLayout(rows, cols, headerLen)

	buf := make([]byte, layout.size)
	copy(buf, segMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(rows))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(cols)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(catalog)))
	copy(buf[headerFixedLen:], catalog)
	binary.LittleEndian.PutUint32(buf[headerFixedLen+len(catalog):],
		crc32.ChecksumIEEE(buf[:headerFixedLen+len(catalog)]))

	zones := make([]ZoneMap, len(cols))
	for i, c := range cols {
		page := layout.pages[i]
		vals := buf[page.off : page.off+page.valLen]
		bm := buf[page.off+page.valLen : page.off+page.dataLen()]
		zones[i] = encodeColumn(t, c, lo, hi, vals, bm)
		binary.LittleEndian.PutUint32(buf[page.off+page.dataLen():],
			crc32.ChecksumIEEE(buf[page.off:page.off+page.dataLen()]))
	}

	footer := buf[layout.footerOff : layout.footerOff+layout.footerLen]
	binary.LittleEndian.PutUint64(footer, uint64(rows))
	for i := range cols {
		binary.LittleEndian.PutUint64(footer[8+24*i:], uint64(zones[i].Min))
		binary.LittleEndian.PutUint64(footer[8+24*i+8:], uint64(zones[i].Max))
		binary.LittleEndian.PutUint64(footer[8+24*i+16:], zones[i].NullCount)
	}
	tr := buf[layout.footerOff+layout.footerLen:]
	binary.LittleEndian.PutUint32(tr, crc32.ChecksumIEEE(footer))
	binary.LittleEndian.PutUint32(tr[4:], uint32(layout.footerLen))
	copy(tr[8:], segEndMagic)
	return buf, zones, nil
}

// encodeColumn fills one column page (values and, when nullable, the NULL
// bitmap) for rows [lo, hi) and returns the column's zone map. NULL rows
// write a zero value slot; only non-NULL values feed min/max.
func encodeColumn(t *engine.Table, c predicate.Column, lo, hi int, vals, bm []byte) ZoneMap {
	zm := ZoneMap{Min: math.MaxInt64, Max: math.MinInt64}
	var fmin, fmax = math.Inf(1), math.Inf(-1)
	nulls := t.Nulls(c.Name)
	put := func(i int, bits int64) {
		binary.LittleEndian.PutUint64(vals[8*i:], uint64(bits))
	}
	for r := lo; r < hi; r++ {
		i := r - lo
		if nulls != nil && nulls[r] {
			zm.NullCount++
			bm[i>>3] |= 1 << (i & 7)
			put(i, 0)
			continue
		}
		if c.Type.Integral() {
			v := t.Ints(c.Name)[r]
			if v < zm.Min {
				zm.Min = v
			}
			if v > zm.Max {
				zm.Max = v
			}
			put(i, v)
		} else {
			v := t.Reals(c.Name)[r]
			if v < fmin {
				fmin = v
			}
			if v > fmax {
				fmax = v
			}
			put(i, int64(math.Float64bits(v)))
		}
	}
	zm.HasValues = zm.NullCount < uint64(hi-lo)
	if !c.Type.Integral() {
		zm.Min = int64(math.Float64bits(fmin))
		zm.Max = int64(math.Float64bits(fmax))
	}
	return zm
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// WriteSegment encodes rows [lo, hi) of t as one segment file at path,
// atomically and durably (tmp + fsync + rename + directory fsync), and
// returns the zone maps it embedded. On error the previous file at path,
// if any, is untouched.
func WriteSegment(path string, t *engine.Table, lo, hi int) ([]ZoneMap, error) {
	buf, zones, err := encodeSegment(t, lo, hi)
	if err != nil {
		return nil, err
	}
	if err := fsatomic.WriteFileBytes(path, buf); err != nil {
		return nil, fmt.Errorf("storage: writing segment: %w", err)
	}
	mBytesWritten.Add(uint64(len(buf)))
	return zones, nil
}

// segMeta is everything a parsed segment header+footer says about a file:
// its schema, geometry, and zone maps — enough to decide pruning and to
// locate pages, without touching any column data.
type segMeta struct {
	layout segLayout
	zones  []ZoneMap
}

func (m *segMeta) rows() int                { return m.layout.rows }
func (m *segMeta) cols() []predicate.Column { return m.layout.cols }

// parseHeader validates the fixed header and catalog held in hdr (which
// must contain at least the full header region) and returns the implied
// layout. totalSize is the file's actual size, cross-checked against the
// layout so a truncated or padded file is rejected before any page read.
func parseHeader(hdr []byte, totalSize int64) (segLayout, error) {
	var zero segLayout
	if int64(len(hdr)) < headerFixedLen {
		return zero, corrupt("file of %d bytes is shorter than the %d-byte fixed header", totalSize, headerFixedLen)
	}
	if string(hdr[:8]) != segMagic {
		return zero, corrupt("bad magic %q (want %q)", hdr[:8], segMagic)
	}
	rows64 := binary.LittleEndian.Uint64(hdr[8:])
	colCount := binary.LittleEndian.Uint32(hdr[16:])
	catalogLen := binary.LittleEndian.Uint32(hdr[20:])
	if rows64 > maxSegmentRows {
		return zero, corrupt("row count %d exceeds the format bound %d", rows64, maxSegmentRows)
	}
	if colCount == 0 || colCount > maxSegmentCols {
		return zero, corrupt("column count %d outside [1,%d]", colCount, maxSegmentCols)
	}
	headerLen := int64(headerFixedLen) + int64(catalogLen) + 4
	if int64(len(hdr)) < headerLen {
		return zero, corrupt("truncated header: %d bytes, catalog claims %d", len(hdr), headerLen)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[headerFixedLen+int(catalogLen):])
	if got := crc32.ChecksumIEEE(hdr[:headerFixedLen+int(catalogLen)]); got != wantCRC {
		return zero, corrupt("header checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
	}

	catalog := hdr[headerFixedLen : headerFixedLen+int(catalogLen)]
	cols := make([]predicate.Column, 0, colCount)
	seen := make(map[string]bool, colCount)
	for i := uint32(0); i < colCount; i++ {
		if len(catalog) < 2 {
			return zero, corrupt("catalog truncated at column %d", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(catalog))
		catalog = catalog[2:]
		if nameLen == 0 || nameLen > maxColNameLen || len(catalog) < nameLen+2 {
			return zero, corrupt("catalog entry %d has name length %d with %d bytes left", i, nameLen, len(catalog))
		}
		name := string(catalog[:nameLen])
		typ := predicate.Type(catalog[nameLen])
		notNull := catalog[nameLen+1]
		catalog = catalog[nameLen+2:]
		if typ != predicate.TypeInteger && typ != predicate.TypeDouble &&
			typ != predicate.TypeDate && typ != predicate.TypeTimestamp {
			return zero, corrupt("column %q has unknown type %d", name, typ)
		}
		if notNull > 1 {
			return zero, corrupt("column %q has bad notNull byte %d", name, notNull)
		}
		if seen[name] {
			return zero, corrupt("duplicate column %q in catalog", name)
		}
		seen[name] = true
		cols = append(cols, predicate.Column{Name: name, Type: typ, NotNull: notNull == 1})
	}
	if len(catalog) != 0 {
		return zero, corrupt("%d trailing bytes after the last catalog entry", len(catalog))
	}

	layout := computeLayout(int(rows64), cols, headerLen)
	if layout.size != totalSize {
		return zero, corrupt("file is %d bytes, header implies %d (truncated or padded)", totalSize, layout.size)
	}
	return layout, nil
}

// parseFooter validates the footer+trailer bytes (the last
// footerLen+trailerLen bytes of the file) against the layout and returns
// the zone maps. The row-count echo must agree with the header.
func parseFooter(ft []byte, layout segLayout) ([]ZoneMap, error) {
	if int64(len(ft)) != layout.footerLen+trailerLen {
		return nil, corrupt("footer region is %d bytes, want %d", len(ft), layout.footerLen+trailerLen)
	}
	footer := ft[:layout.footerLen]
	tr := ft[layout.footerLen:]
	if string(tr[8:16]) != segEndMagic {
		return nil, corrupt("bad end magic %q (want %q)", tr[8:16], segEndMagic)
	}
	if got := int64(binary.LittleEndian.Uint32(tr[4:])); got != layout.footerLen {
		return nil, corrupt("trailer footer length %d disagrees with catalog-implied %d", got, layout.footerLen)
	}
	wantCRC := binary.LittleEndian.Uint32(tr)
	if got := crc32.ChecksumIEEE(footer); got != wantCRC {
		return nil, corrupt("footer checksum mismatch (stored %08x, computed %08x)", wantCRC, got)
	}
	echo := binary.LittleEndian.Uint64(footer)
	if echo != uint64(layout.rows) {
		return nil, corrupt("footer row count %d disagrees with header row count %d", echo, layout.rows)
	}
	zones := make([]ZoneMap, len(layout.cols))
	for i := range layout.cols {
		zones[i] = ZoneMap{
			Min:       int64(binary.LittleEndian.Uint64(footer[8+24*i:])),
			Max:       int64(binary.LittleEndian.Uint64(footer[8+24*i+8:])),
			NullCount: binary.LittleEndian.Uint64(footer[8+24*i+16:]),
		}
		if zones[i].NullCount > uint64(layout.rows) {
			return nil, corrupt("column %q claims %d NULLs in %d rows", layout.cols[i].Name, zones[i].NullCount, layout.rows)
		}
		zones[i].HasValues = zones[i].NullCount < uint64(layout.rows)
	}
	return zones, nil
}

// parseSegment validates a whole in-memory segment image (header, size,
// footer — not page checksums, which are verified page by page on decode)
// and returns its metadata.
func parseSegment(data []byte) (*segMeta, error) {
	layout, err := parseHeader(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	zones, err := parseFooter(data[layout.footerOff:], layout)
	if err != nil {
		return nil, err
	}
	return &segMeta{layout: layout, zones: zones}, nil
}

// decodeTable verifies every column page's checksum and decodes the pages
// into an engine table named name. data holds the segment file's bytes
// from offset base on, through the last page. It is the one decode path
// under both DecodeSegment (base 0, the whole image) and Segment.Load
// (base at the first page, the pages region only).
func decodeTable(name string, layout segLayout, data []byte, base int64) (*engine.Table, error) {
	values := make([]engine.ColumnValues, 0, len(layout.cols))
	for i, c := range layout.cols {
		spec := layout.pages[i]
		page := data[spec.off-base : spec.off-base+spec.dataLen()]
		wantCRC := binary.LittleEndian.Uint32(data[spec.off-base+spec.dataLen():])
		if got := crc32.ChecksumIEEE(page); got != wantCRC {
			return nil, corrupt("column %q page checksum mismatch (stored %08x, computed %08x)", c.Name, wantCRC, got)
		}
		values = append(values, decodePage(c, layout.rows, page))
	}
	t, err := engine.NewTableFromColumns(name, predicate.NewSchema(layout.cols...), layout.rows, values)
	if err != nil {
		return nil, corrupt("rebuilding table: %v", err)
	}
	return t, nil
}

// decodePage turns one column's page bytes (values + optional bitmap,
// checksum already verified) into engine column arrays.
func decodePage(c predicate.Column, rows int, page []byte) engine.ColumnValues {
	cv := engine.ColumnValues{Name: c.Name}
	vals := page[:rows*8]
	if c.Type.Integral() {
		cv.Ints = make([]int64, rows)
		decodeInt64s(cv.Ints, vals)
	} else {
		cv.Reals = make([]float64, rows)
		decodeFloat64s(cv.Reals, vals)
	}
	if !c.NotNull {
		bm := page[rows*8:]
		cv.Nulls = make([]bool, rows)
		for i := range cv.Nulls {
			cv.Nulls[i] = bm[i>>3]&(1<<(i&7)) != 0
		}
	}
	return cv
}

// decodeInt64s fills dst from little-endian 8-byte slots — the segment
// scan's innermost decode loop.
//
// sia:hotpath
func decodeInt64s(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// decodeFloat64s fills dst from little-endian float64 bit patterns.
//
// sia:hotpath
func decodeFloat64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// DecodeSegment decodes a complete in-memory segment image into an engine
// table named name, verifying every checksum. It is the byte-level reader;
// OpenSegment/Load is the file-level one, built on the same validators
// and the same page decoder, and FuzzReadSegment requires the two agree.
func DecodeSegment(name string, data []byte) (*engine.Table, error) {
	meta, err := parseSegment(data)
	if err != nil {
		return nil, err
	}
	return decodeTable(name, meta.layout, data, 0)
}
