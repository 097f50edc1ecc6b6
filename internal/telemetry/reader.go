package telemetry

import (
	"fmt"
	"io"
	"os"
)

// Reader iterates a store's records in wearer order, one decoded block in
// memory at a time — reading a million-wearer store costs one block of
// RAM, not the file size. When a valid checkpoint sidecar exists the
// reader trusts it and stops at its offset (bytes past it are an
// uncommitted tail); otherwise it verifies frame by frame and stops at
// the first damaged one, a truncation.
//
// Every read goes through one pair step (nextBlock) and one walk over
// the committed pairs (advance), and each consumer is a mask over them:
// EachRecord builds records alone, QueryStore no rows, and the tests'
// full decode (Next and Each) records with samples. Every mask checks
// every column exactly as strictly, so a walk's verdict, totals and index
// entries never depend on it.
type Reader struct {
	f    *os.File
	meta Meta
	pos  int64 // start of the next frame to read
	// limit is the exclusive end of the walk: the checkpoint offset or
	// the file size at open, pulled back to pos once the walk ends at a
	// damaged frame (a truncation) or at the trailing index frame. After
	// draining, pos is exactly where a resumed writer appends.
	limit int64
	// ck is the trusted checkpoint sidecar, nil when it is missing,
	// inconsistent with the file, or ignored (strict).
	ck *checkpoint
	// strict (OpenStrict) ignores the checkpoint and turns every damaged
	// or out-of-place frame into a hard error instead of a silent
	// truncation — the integrity-audit mode iobtrace verify runs in.
	strict bool
	// decoded block being drained
	block []Record
	bi    int
	// The pair in hand, reused from pair to pair: its verified frame
	// bytes, the series body within them, and the views the pair step
	// decodes its record and series frames into.
	frames   []byte
	series   []byte
	rec, ser bodyView
	// running totals
	blocks    int
	records   int
	seriesPts int64
	rawBytes  int64
	size      int64
	truncated bool
	// entries accumulates per-block index entries as blocks are read, so
	// strict mode can cross-check the trailing index frame field by field
	// and a resumed writer can rewrite it.
	entries []indexEntry
}

// mask is what a walk decodes of each pair: the record, node and point
// columns it keeps (bit i for column i of the table; the pair step adds
// the cell and time columns the index entry reads), and whether it
// builds the block's records — with their samples attached when points
// keeps every column.
type mask struct {
	records, nodes, points uint64
	rows                   bool
}

// recordColumns is the mask of EachRecord and the merge.
var recordColumns = mask{records: allColumns, nodes: allColumns, rows: true}

// Open opens the store at path for reading. It may be called on a store a
// live Writer is still appending to: the checkpoint pins the readable
// prefix.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open: %w", err)
	}
	r, err := newReader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// newReader is the open prologue every store access shares — Open (and
// through it OpenStrict, Committed and QueryStore) and Resume. It checks
// the header and refuses a newer format before any of its frames can be
// misread as damage, then trusts the checkpoint sidecar only when it is
// consistentWith the file. It reads the checkpoint before statting: a
// live writer commits the block first and renames the checkpoint
// second, so in this order a valid checkpoint's offset is always within
// the observed size — the reverse order could see a fresh checkpoint
// past a stale size and wrongly degrade to truncated-scan mode.
func newReader(f *os.File, path string) (*Reader, error) {
	meta, hdrLen, err := readHeaderFile(f)
	if err == nil {
		err = checkVersion(meta)
	}
	if err != nil {
		return nil, err
	}
	ck, ckErr := readCheckpoint(path, meta)
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("telemetry: open: %w", err)
	}
	r := &Reader{f: f, meta: meta, pos: hdrLen, limit: st.Size(), size: st.Size()}
	if ckErr == nil && ck.consistentWith(hdrLen, st.Size()) {
		r.ck = &ck
		r.limit = ck.Offset
	}
	return r, nil
}

// OpenStrict opens the store for an integrity audit: the checkpoint
// sidecar is ignored, every physical byte of the file must belong to a
// CRC-valid, contiguous frame, and any damage — including damage past a
// (possibly stale) checkpoint, and a torn tail frame a kill left behind —
// surfaces as a Next error instead of a silent truncation. iobtrace
// verify runs in this mode so its exit code reflects the whole file, not
// just the checkpoint-trusted prefix.
func OpenStrict(path string) (*Reader, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	r.ck, r.limit, r.strict = nil, r.size, true
	return r, nil
}

// Meta returns the store's header metadata.
func (r *Reader) Meta() Meta { return r.meta }

// next returns the next record of the block in hand, walking to the
// next pair under m once the block is drained.
func (r *Reader) next(m mask) (Record, error) {
	for r.bi >= len(r.block) {
		if err := r.advance(m); err != nil {
			return Record{}, err
		}
	}
	rec := r.block[r.bi]
	r.bi++
	return rec, nil
}

// advance is the walk: it runs the pair step on the next committed pair
// under m and books it — totals, index entry, pos past the pair — or
// returns io.EOF where the walk ends: at a damaged frame without a
// checkpoint (a truncation), or at the trailing index frame, with limit
// pulled back to pos. Inside a checkpointed prefix, or in strict mode,
// damage is the error returned.
func (r *Reader) advance(m mask) error {
	if r.pos >= r.limit {
		return io.EOF
	}
	e, err := r.nextBlock(r.pos, r.meta.FirstWearer+r.records, m)
	if err != nil {
		if err != io.EOF && (r.ck != nil || r.strict) {
			return err
		}
		r.truncated = err != io.EOF
		r.limit = r.pos
		return io.EOF
	}
	r.entries = append(r.entries, e)
	r.blocks++
	r.records += e.records
	r.seriesPts += int64(e.points)
	r.rawBytes += int64(rawSize(e.records, r.rec.total, e.points))
	r.pos += int64(len(r.frames))
	return nil
}

// nextBlock is the pair step. It reads the record frame at offset at
// and, in a series-enabled store, the series frame that must follow it
// (a pair commits in one write, so a lone record block is damage) into
// r.frames, never past limit, and decodes them under m into r.rec and
// r.ser; the block must start at wearer first. It returns the block's
// index entry, built from the decoded columns, and with m.rows leaves
// the block's records in r.block. It returns io.EOF at a valid trailing
// index frame, and ErrCorrupt-wrapped errors for damage.
func (r *Reader) nextBlock(at int64, first int, m mask) (indexEntry, error) {
	frames, err := readFrame(r.frames[:0], r.f, at, r.limit)
	if err != nil {
		return indexEntry{}, err
	}
	r.frames = frames
	kind, body, err := splitKind(framePayload(frames), r.meta.Version)
	if err != nil {
		return indexEntry{}, err
	}
	switch kind {
	case kindSeries:
		// Series frames are read with their record block below; one
		// standing alone lost its pair.
		return indexEntry{}, fmt.Errorf("%w: orphan series frame", ErrCorrupt)
	case kindIndex:
		return indexEntry{}, r.checkIndex(at, body)
	}
	r.rec.records.keep, r.rec.children.keep = m.records|1<<recordCellColumn, m.nodes
	if err := recordBlock.project(body, r.meta.Version, 0, -1, &r.rec); err != nil {
		return indexEntry{}, err
	}
	if r.rec.first != first {
		return indexEntry{}, fmt.Errorf("%w: non-contiguous wearer indices", ErrCorrupt)
	}
	e := indexEntry{recOffset: at, firstWearer: first}
	for i, n := range r.rec.counts {
		cell := -1
		if r.meta.Version >= FormatV1 {
			cell = int(r.rec.records.ints[recordCellColumn][i])
		}
		e.addRecord(cell, int(n))
	}
	if r.meta.Series() {
		e.serOffset = at + int64(len(r.frames))
		if r.frames, r.series, err = readKind(r.frames, r.f, e.serOffset, r.limit, FormatV3, kindSeries); err != nil {
			return indexEntry{}, err
		}
		if err := r.decodeSeries(m.points); err != nil {
			return indexEntry{}, err
		}
		for _, t := range r.ser.children.ints[seriesTimeColumn] {
			e.addPoint(t)
		}
	}
	r.block, r.bi = nil, 0
	if m.rows {
		r.block = recordBlock.rows(&r.rec, nil, r.meta.Version)
		if r.meta.Series() && m.points == allColumns {
			seriesFrame.rows(&r.ser, r.block, FormatV3)
		}
	}
	return e, nil
}

// decodeSeries decodes the series body of the pair in hand under keep
// into r.ser, paired with the block in r.rec.
func (r *Reader) decodeSeries(keep uint64) error {
	r.ser.children.keep = keep | 1<<seriesTimeColumn
	return seriesFrame.project(r.series, FormatV3, r.rec.first, len(r.rec.counts), &r.ser)
}

// checkIndex checks the index frame body read at offset at: it must be
// the walk's last frame and, in strict mode, restate exactly the blocks
// walked to get here. A valid one ends the walk with io.EOF.
func (r *Reader) checkIndex(at int64, body []byte) error {
	entries, err := decodeIndexBody(body)
	if err != nil {
		return err
	}
	if at+int64(len(r.frames)) != r.limit {
		return fmt.Errorf("%w: index frame is not the final frame", ErrCorrupt)
	}
	if r.strict {
		if len(entries) != len(r.entries) {
			return fmt.Errorf("%w: index holds %d entries, store holds %d blocks",
				ErrCorrupt, len(entries), len(r.entries))
		}
		for i := range entries {
			if entries[i] != r.entries[i] {
				return fmt.Errorf("%w: index entry %d (%+v) does not match block (%+v)",
					ErrCorrupt, i, entries[i], r.entries[i])
			}
		}
	}
	return io.EOF
}

// EachRecord drains the reader: it hands every remaining committed record,
// with Series nil, to fn in wearer order and stops at the first error,
// from the walk or from fn, returning it. A record borrows the reader's
// decode buffers until fn returns. Series frames are checked as strictly
// as records and their samples only counted, so every total below reads
// as after a full decode. With a fn that keeps nothing it is the walk of
// a reader that wants only the totals.
func (r *Reader) EachRecord(fn func(Record) error) error { return r.each(recordColumns, fn) }

// each drains the reader under m into fn.
func (r *Reader) each(m mask, fn func(Record) error) error {
	for {
		rec, err := r.next(m)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Blocks and Records report how much of the store has been iterated so
// far; after draining to io.EOF they cover the whole committed prefix.
func (r *Reader) Blocks() int  { return r.blocks }
func (r *Reader) Records() int { return r.records }

// SeriesPoints reports the time-series samples of the records iterated
// so far, whether or not the walk attached them (0 in a pre-v3 or
// series-off store).
func (r *Reader) SeriesPoints() int64 { return r.seriesPts }

// RawBytes is the flat fixed-width size of every record iterated so far —
// the numerator of the store's compression ratio.
func (r *Reader) RawBytes() int64 { return r.rawBytes }

// StoredBytes is the total file size including header and framing.
func (r *Reader) StoredBytes() int64 { return r.size }

// Checkpointed reports whether a valid checkpoint sidecar bounded the
// read.
func (r *Reader) Checkpointed() bool { return r.ck != nil }

// Close releases the underlying file.
func (r *Reader) Close() error {
	r.block = nil
	return r.f.Close()
}
