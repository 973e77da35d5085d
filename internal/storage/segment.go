package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"sia/internal/engine"
	"sia/internal/predicate"
)

// Segment is an opened, validated segment file. Opening reads and checks
// only the header, catalog and footer (a few hundred bytes regardless of
// segment size); the column pages stay on disk until Load, so a scan that
// prunes the segment via its zone maps never pays for them.
type Segment struct {
	path string
	meta *segMeta
}

// OpenSegment opens and validates the segment file at path: magic, header
// and footer checksums, catalog sanity, the exact file size the header
// implies, and header/footer row-count agreement. Structural damage
// surfaces as an error matching ErrCorrupt; I/O failures pass through.
func OpenSegment(path string) (*Segment, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: opening segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: stating segment: %w", err)
	}
	size := st.Size()
	if size < headerFixedLen+trailerLen {
		return nil, corrupt("%s: file of %d bytes is too small for a segment", path, size)
	}

	fixed := make([]byte, headerFixedLen)
	if _, err := io.ReadFull(f, fixed); err != nil {
		return nil, fmt.Errorf("storage: reading segment header: %w", err)
	}
	headerLen := int64(headerFixedLen) + int64(binary.LittleEndian.Uint32(fixed[20:])) + 4
	if headerLen > size {
		return nil, corrupt("%s: header claims %d bytes in a %d-byte file", path, headerLen, size)
	}
	hdr := make([]byte, headerLen)
	copy(hdr, fixed)
	if _, err := io.ReadFull(f, hdr[headerFixedLen:]); err != nil {
		return nil, fmt.Errorf("storage: reading segment catalog: %w", err)
	}
	layout, err := parseHeader(hdr, size)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	ft := make([]byte, layout.footerLen+trailerLen)
	if _, err := f.ReadAt(ft, layout.footerOff); err != nil {
		return nil, fmt.Errorf("storage: reading segment footer: %w", err)
	}
	zones, err := parseFooter(ft, layout)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	mBytesRead.Add(uint64(headerLen) + uint64(len(ft)))
	mOpenSeconds.Observe(time.Since(start).Seconds())
	return &Segment{path: path, meta: &segMeta{layout: layout, zones: zones}}, nil
}

// NumRows returns the segment's row count.
func (s *Segment) NumRows() int { return s.meta.rows() }

// Columns returns the segment's column catalog in file order.
func (s *Segment) Columns() []predicate.Column { return s.meta.cols() }

// Zones returns the per-column zone maps in catalog order.
func (s *Segment) Zones() []ZoneMap { return s.meta.zones }

// Load reads the segment's column pages, verifies each page checksum, and
// decodes them into an engine table named name. Every Load re-reads the
// file — decoded segments are deliberately not cached, so the I/O a pruned
// segment avoids is real.
func (s *Segment) Load(name string) (*engine.Table, error) {
	start := time.Now()
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("storage: opening segment: %w", err)
	}
	defer f.Close()

	layout := s.meta.layout
	pagesOff := layout.pages[0].off
	pages := make([]byte, layout.footerOff-pagesOff)
	if _, err := f.ReadAt(pages, pagesOff); err != nil {
		return nil, fmt.Errorf("storage: reading segment pages: %w", err)
	}
	t, err := decodeTable(name, layout, pages, pagesOff)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.path, err)
	}

	mBytesRead.Add(uint64(len(pages)))
	mSegmentsScanned.Inc()
	mDecodeSeconds.Observe(time.Since(start).Seconds())
	return t, nil
}
