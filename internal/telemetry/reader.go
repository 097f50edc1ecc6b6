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
// the first damaged one, reporting the cut via Truncated.
//
// Its block loop is the only walk over a store's committed record+series
// pairs, and Each the one drain of it (Check is Each building no series
// samples): Resume drains a Reader on its own file into the caller's
// sink and adopts where the walk ended, the counts and the index entries
// it collected, and QueryStore without an index queries the pairs the
// walk verified.
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
	// frames holds the verified bytes of the pair in hand, reused from
	// pair to pair.
	frames []byte
	// skim (Check, Resume) builds no series samples: every series frame
	// is checked exactly as strictly, through view, and only counted.
	skim bool
	view bodyView
	// splice, set by MergeShards, is asked with each record block's first
	// wearer and record count whether the merged store takes the pair
	// unchanged. Such a pair is skimmed too; spliced reports the answer
	// for the pair in hand.
	splice  func(first, n int) bool
	spliced bool
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

// Next returns the next record, or io.EOF after the last committed one.
// Without a checkpoint, a damaged frame ends iteration early (Truncated
// reports that) rather than erroring: it is indistinguishable from a
// killed run's uncommitted tail. Inside a checkpointed prefix damage is
// an error — the checkpoint promised those bytes. Either way the walk
// ends with pos at the first frame it did not trust (the damaged frame,
// or the trailing index frame), and limit pulled back to it.
func (r *Reader) Next() (Record, error) {
	for r.bi >= len(r.block) {
		if err := r.advance(); err != nil {
			return Record{}, err
		}
	}
	rec := r.block[r.bi]
	r.bi++
	return rec, nil
}

// advance loads the next committed pair into r.block, or returns io.EOF
// where the walk ends. Without a checkpoint, a damaged frame ends it
// early (a truncation); inside a checkpointed prefix, or in strict
// mode, damage is the error returned.
func (r *Reader) advance() error {
	if r.pos >= r.limit {
		return io.EOF
	}
	if err := r.nextBlock(); err != nil {
		if err != io.EOF && (r.ck != nil || r.strict) {
			return err
		}
		r.truncated = err != io.EOF
		r.limit = r.pos
		return io.EOF
	}
	return nil
}

// nextBlock loads the next record block (with its series frame attached
// in a series-enabled store, unless the pair is skimmed) into r.block,
// its verified bytes into r.frames, and advances pos past the pair. It
// returns io.EOF at a valid trailing index frame, and ErrCorrupt-wrapped
// errors for damage — the caller maps those to truncation or hard
// failure. Neither advances pos.
func (r *Reader) nextBlock() error {
	frames, err := readFrame(r.frames[:0], r.f, r.pos, r.limit)
	if err != nil {
		return err
	}
	r.frames = frames
	kind, body, err := splitKind(framePayload(frames), r.meta.Version)
	if err != nil {
		return err
	}
	switch kind {
	case kindRecords:
		recs, err := decodeBlock(body, r.meta.Version)
		if err != nil {
			return err
		}
		if len(recs) == 0 || recs[0].Wearer != r.meta.FirstWearer+r.records {
			return fmt.Errorf("%w: non-contiguous wearer indices", ErrCorrupt)
		}
		r.spliced = r.splice != nil && r.splice(recs[0].Wearer, len(recs))
		serOff := int64(0)
		skim := r.skim || r.spliced
		var span timeSpan
		if r.meta.Series() {
			// The pair committed in one write: a record block inside the
			// trusted region without a valid series frame is damage.
			serOff = r.pos + int64(len(r.frames))
			var series []byte
			if r.frames, series, err = readKind(r.frames, r.f, serOff, r.limit, FormatV3, kindSeries); err != nil {
				return err
			}
			if skim {
				span, err = checkSeriesBody(series, recs, &r.view)
			} else {
				err = decodeSeriesBody(series, recs)
			}
			if err != nil {
				return err
			}
		}
		e := entryFor(r.pos, serOff, recs)
		if skim { // the samples were never attached
			e.timeSpan = span
			r.rawBytes += int64(span.points * rawPointSize)
		}
		r.entries = append(r.entries, e)
		r.block, r.bi = recs, 0
		r.blocks++
		r.records += len(recs)
		r.seriesPts += int64(e.points)
		for i := range recs {
			r.rawBytes += int64(recs[i].RawSize())
		}
		r.pos += int64(len(r.frames))
		return nil
	case kindSeries:
		// Series frames are consumed with their record block above; one
		// standing alone lost its pair.
		return fmt.Errorf("%w: orphan series frame", ErrCorrupt)
	default: // kindIndex
		entries, err := decodeIndexBody(body)
		if err != nil {
			return err
		}
		if r.pos+int64(len(frames)) != r.limit {
			return fmt.Errorf("%w: index frame is not the final frame", ErrCorrupt)
		}
		if r.strict {
			// The index must restate exactly the blocks walked to get
			// here; any divergence means it describes a different file.
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
}

// Each drains the reader: it hands every remaining committed record to
// fn in wearer order and stops at the first error, from the walk or from
// fn, returning it. A record borrows the reader's decode buffers until
// fn returns.
func (r *Reader) Each(fn func(Record) error) error {
	for {
		rec, err := r.Next()
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

// Check drains the reader like Each with a sink that keeps nothing, but
// builds no series samples: each series frame is checked exactly as
// strictly and only counted, so every total below reads as after Each.
// It is the walk of a reader that wants only the totals or the verdict.
func (r *Reader) Check() error {
	r.skim = true
	return r.Each(func(Record) error { return nil })
}

// Blocks and Records report how much of the store has been iterated so
// far; after draining to io.EOF they cover the whole committed prefix.
func (r *Reader) Blocks() int  { return r.blocks }
func (r *Reader) Records() int { return r.records }

// SeriesPoints reports the time-series samples attached to the records
// iterated so far (0 in a pre-v3 or series-off store).
func (r *Reader) SeriesPoints() int64 { return r.seriesPts }

// RawBytes is the flat fixed-width size of every record iterated so far —
// the numerator of the store's compression ratio.
func (r *Reader) RawBytes() int64 { return r.rawBytes }

// StoredBytes is the total file size including header and framing.
func (r *Reader) StoredBytes() int64 { return r.size }

// Truncated reports whether iteration ended at a damaged frame instead of
// clean end-of-data (only possible without a checkpoint sidecar). The
// damaged frame's offset is then the reader's limit: everything before
// it verified.
func (r *Reader) Truncated() bool { return r.truncated }

// Checkpointed reports whether a valid checkpoint sidecar bounded the
// read.
func (r *Reader) Checkpointed() bool { return r.ck != nil }

// Close releases the underlying file.
func (r *Reader) Close() error {
	r.block = nil
	return r.f.Close()
}
