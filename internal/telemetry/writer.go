package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"wiban/internal/compress"
)

// Writer appends wearer records to a store, committing a framed block
// whenever the next wearer index lands on the absolute BlockSize grid
// and checkpointing after each commit. It implements the fleet engine's
// Sink interface via Consume. Writers are not safe for concurrent use;
// the fleet engine already serializes sink calls into wearer-index order.
type Writer struct {
	f      *os.File
	path   string
	meta   Meta
	next   int   // next expected wearer index
	blocks int   // committed RECORD blocks (series/index frames never count)
	offset int64 // committed (checkpointed) data-file length
	buf    []Record
	nodes  []NodeRecord  // backing arena so buffered records share one allocation
	points []SeriesPoint // same arena trick for buffered series samples
	// pair and cols are commit's encode buffers, reused from block to
	// block: pair holds the last committed record(+series) frames, so it
	// is already sized for the next.
	pair []byte
	cols columnBuf
	// entries is the per-block query index accumulated across commits and
	// written as the trailing index frame at Close. Resume seeds it with
	// the entries of the blocks it verified, so Close never re-reads.
	entries []indexEntry
	closed  bool
	// derived marks a merge destination: it checkpoints once, at Close,
	// because the shard stores it is built from are its recovery state.
	derived bool

	// OnCommit, when non-nil, is invoked after every committed block once
	// its checkpoint is durable, with the writer's running totals: committed
	// blocks, committed records and the committed data-file length in bytes.
	// It runs synchronously on the Consume path — the block-commit tick a
	// progress stream or metrics exporter rides — so it must be fast and
	// must not call back into the writer. Set it after Create or Resume,
	// before the first Consume.
	OnCommit func(blocks, records int, bytes int64)
}

// encodeHeader renders the file header for meta.
func encodeHeader(meta Meta) ([]byte, error) {
	blob, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("telemetry: meta: %w", err)
	}
	hdr := append([]byte(fileMagic), compress.AppendUvarint(nil, uint64(len(blob)))...)
	hdr = append(hdr, blob...)
	return binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(blob)), nil
}

// Create starts a new store at path, truncating any existing file, and
// immediately checkpoints the empty state so a kill before the first
// block still resumes cleanly.
func Create(path string, meta Meta) (*Writer, error) {
	if meta.BlockSize == 0 {
		meta.BlockSize = DefaultBlockSize
	}
	if err := meta.validate(); err != nil {
		return nil, err
	}
	hdr, err := encodeHeader(meta)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: create: %w", err)
	}
	// A failed create leaves nothing: the file was truncated the moment it
	// opened, so whatever used to live at path is already gone, and a
	// headerless or checkpoint-less husk would only confuse later recovery.
	fail := func(err error) (*Writer, error) {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	// Remove any leftover sidecar from a previous run at this path BEFORE
	// the store gains content. The old sidecar describes the overwritten
	// file: if it survived until our own first checkpoint rename — e.g.
	// because that rename fails, or the process dies first — a later
	// Resume could trust it (same seed ⇒ its SeedCheck still verifies) and
	// truncate the fresh store at a stale offset, mid-frame.
	if err := os.Remove(CheckpointPath(path)); err != nil && !os.IsNotExist(err) {
		return fail(fmt.Errorf("telemetry: remove stale checkpoint: %w", err))
	}
	if _, err := f.Write(hdr); err != nil {
		return fail(fmt.Errorf("telemetry: write header: %w", err))
	}
	w := &Writer{f: f, path: path, meta: meta, next: meta.FirstWearer, offset: int64(len(hdr))}
	if err := w.writeCheckpoint(); err != nil {
		return fail(err)
	}
	return w, nil
}

// Resume reopens the interrupted store at path to continue the sweep
// want describes and positions the writer at NextWearer. It reads the
// header first and refuses a store that describes a different sweep with
// ErrMismatch: the block size is the store's own, and the format version
// the store's while it can still represent want (adoptVersion). Then it
// drains the store's own Reader with EachRecord, which verifies every
// frame, collects its index entry and hands sink each record, Series
// nil, borrowed until sink returns. The walk trusts exactly a valid
// checkpoint sidecar's prefix, where damage is an ErrCorrupt error, and
// otherwise the longest verifiable prefix: a torn record+series pair is
// discarded, and so is a trailing index frame, which Close rewrites
// identically. The truncation and the checkpoint rewrite come only after
// the walk and every sink call succeed, so a refused or failed Resume
// leaves the store and its sidecar as they were.
func Resume(path string, want Meta, sink func(Record) error) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("telemetry: resume: %w", err)
	}
	w, err := resume(f, path, want, sink)
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func resume(f *os.File, path string, want Meta, sink func(Record) error) (*Writer, error) {
	r, err := newReader(f, path)
	if err != nil {
		return nil, err
	}
	if r.meta.BlockSize <= 0 {
		// Create always writes a positive one, and Consume cuts on its grid.
		return nil, fmt.Errorf("%w: block size %d", ErrCorrupt, r.meta.BlockSize)
	}
	want.BlockSize = r.meta.BlockSize
	want.Version = adoptVersion(r.meta.Version, want.Cells, want.Feedback, want.Series())
	if r.meta != want {
		return nil, fmt.Errorf("%s: %w:\n  store: %+v\n  spec:  %+v", path, ErrMismatch, r.meta, want)
	}
	if err := r.EachRecord(sink); err != nil {
		return nil, fmt.Errorf("telemetry: resume: %w", err)
	}
	w := &Writer{f: f, path: path, meta: r.meta, next: r.meta.FirstWearer + r.records,
		blocks: r.blocks, offset: r.pos, entries: r.entries}
	if err := w.f.Truncate(w.offset); err != nil {
		return nil, fmt.Errorf("telemetry: truncate to checkpoint: %w", err)
	}
	if _, err := w.f.Seek(w.offset, 0); err != nil {
		return nil, fmt.Errorf("telemetry: resume seek: %w", err)
	}
	return w, w.writeCheckpoint()
}

// NextWearer is the next record index the writer expects — equivalently,
// the number of committed-or-buffered records, and after Resume the index
// the interrupted sweep continues from.
func (w *Writer) NextWearer() int { return w.next }

// Checkpointed is the wearer index the durable checkpoint resumes from:
// NextWearer less the records still buffered toward the next block,
// which a kill or Abort loses.
func (w *Writer) Checkpointed() int { return w.next - len(w.buf) }

// Blocks reports committed blocks.
func (w *Writer) Blocks() int { return w.blocks }

// Offset reports the committed (checkpointed) data-file length in bytes,
// header included — the store size a kill at this instant preserves.
func (w *Writer) Offset() int64 { return w.offset }

// Consume appends one wearer record; it implements the fleet engine's
// Sink interface. Records must arrive in strict wearer order. A block
// commits once the next wearer index is a multiple of BlockSize: blocks
// sit on the absolute wearer grid, so a shard store starting off it
// commits one short first block and from then on exactly the blocks a
// full-range writer cuts there — which is what lets MergeShards splice
// them. The writer copies both slice-typed fields — rec.Nodes and
// rec.Series — into its block arenas before returning, so callers may
// reuse theirs; this is what lets MergeShards re-encode records that
// borrow a shard Reader's decode buffers.
func (w *Writer) Consume(rec Record) error {
	if w.closed {
		return fmt.Errorf("telemetry: write to closed store %s", w.path)
	}
	if rec.Wearer != w.next {
		return fmt.Errorf("telemetry: out-of-order record: wearer %d, expected %d", rec.Wearer, w.next)
	}
	if _, end := w.meta.Range(); rec.Wearer >= end {
		return fmt.Errorf("telemetry: wearer %d past store range end %d", rec.Wearer, end)
	}
	if rec.Cell >= 0 && w.meta.Version < FormatV1 {
		// Refuse rather than silently drop: the cell column is replayed
		// state, and losing it would break resume fingerprints.
		return fmt.Errorf("telemetry: record carries cell %d but store format v%d has no cell column",
			rec.Cell, w.meta.Version)
	}
	if (rec.EqForeignLoadPPM != 0 || rec.FeedbackIters != 0) && w.meta.Version < FormatV2 {
		// Same refusal for the equilibrium columns: silently dropping
		// them would make a feedback sweep's store replay differently.
		return fmt.Errorf("telemetry: record carries equilibrium data but store format v%d has no feedback columns",
			w.meta.Version)
	}
	if len(rec.Series) > 0 && !w.meta.Series() {
		// Refuse rather than drop, like the cell and equilibrium columns:
		// a caller sampling series into a store with no series frames
		// would silently lose them — and a series-off store must stay
		// byte-identical to a v2 store.
		return fmt.Errorf("telemetry: record carries %d series points but store (format v%d, cadence %g) has no series frames",
			len(rec.Series), w.meta.Version, w.meta.SeriesCadenceSeconds)
	}
	start := len(w.nodes)
	w.nodes = append(w.nodes, rec.Nodes...)
	rec.Nodes = w.nodes[start:len(w.nodes):len(w.nodes)]
	ps := len(w.points)
	w.points = append(w.points, rec.Series...)
	rec.Series = w.points[ps:len(w.points):len(w.points)]
	w.buf = append(w.buf, rec)
	w.next++
	if w.next%w.meta.BlockSize == 0 {
		return w.commit()
	}
	return nil
}

// commit encodes the buffered records as one block — plus, in a
// series-enabled store, the paired series frame, appended in the same
// write so no committed record block can exist without its series — and
// advances the checkpoint past it.
func (w *Writer) commit() error {
	if len(w.buf) == 0 {
		return nil
	}
	w.pair = encodeBlock(w.pair[:0], &w.cols, w.buf, w.meta.Version)
	serOff := int64(0)
	if w.meta.Series() {
		serOff = w.offset + int64(len(w.pair))
		w.pair = encodeSeriesFrame(w.pair, &w.cols, w.buf)
	}
	e := entryFor(w.offset, serOff, w.buf)
	w.buf = w.buf[:0]
	w.nodes = w.nodes[:0]
	w.points = w.points[:0]
	return w.appendPair(w.pair, e)
}

// onGrid reports whether the n records from wearer first are exactly the
// block this writer cuts next: first is the next wearer and on the
// BlockSize grid — so nothing is buffered, Consume having committed
// there — and n makes a full block or the range's tail. A verified pair
// holding them is then byte for byte the pair commit would write, so
// splice may copy it.
func (w *Writer) onGrid(first, n int) bool {
	_, end := w.meta.Range()
	return first == w.next && first%w.meta.BlockSize == 0 && n == min(w.meta.BlockSize, end-first)
}

// splice appends a verified record(+series) pair that onGrid accepted,
// unchanged, with its index entry moved to this store's offsets.
func (w *Writer) splice(pair []byte, e indexEntry) error {
	if e.serOffset != 0 {
		e.serOffset += w.offset - e.recOffset
	}
	e.recOffset = w.offset
	w.next += e.records
	return w.appendPair(pair, e)
}

// appendPair writes one committed record(+series) pair in a single write,
// files its index entry and advances the checkpoint past it.
func (w *Writer) appendPair(pair []byte, e indexEntry) error {
	if _, err := w.f.Write(pair); err != nil {
		return fmt.Errorf("telemetry: write block: %w", err)
	}
	if w.meta.Version >= FormatV3 {
		w.entries = append(w.entries, e)
	}
	w.offset += int64(len(pair))
	w.blocks++
	if w.derived {
		return nil
	}
	if err := w.writeCheckpoint(); err != nil {
		return err
	}
	if w.OnCommit != nil {
		w.OnCommit(w.blocks, w.next, w.offset)
	}
	return nil
}

// Flush commits any buffered records as a short block. The fleet engine
// calls it (via Close) when a sweep completes, so only a kill — never a
// clean finish — loses tail records.
func (w *Writer) Flush() error { return w.commit() }

// Close flushes and closes the store. On a v3 store with committed
// blocks it then appends the trailing query-index frame — deliberately
// PAST the final checkpoint and never covered by one, so Resume discards
// and deterministically rewrites it: a kill/resume cycle yields a
// byte-identical file. A merge destination writes its one checkpoint
// here, the same sidecar a single writer leaves after its last commit.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	err := w.commit()
	if err == nil && w.derived {
		err = w.writeCheckpoint()
	}
	if err != nil {
		w.f.Close()
		return err
	}
	if w.meta.Version >= FormatV3 && w.blocks > 0 {
		if _, err := w.f.Write(encodeIndexFrame(w.entries)); err != nil {
			w.f.Close()
			return fmt.Errorf("telemetry: write index: %w", err)
		}
	}
	w.closed = true
	return w.f.Close()
}

// Abort closes the file without flushing buffered records or advancing
// the checkpoint — the in-process equivalent of a kill, used by the
// resume tests and fatal paths that must not mask an earlier error. The
// store and its checkpointed prefix stay on disk so the sweep can
// resume; a writer whose output is worthless without a successful Close
// should call Discard instead.
func (w *Writer) Abort() error {
	w.closed = true
	return w.f.Close()
}

// Discard is Abort plus cleanup: it closes the file and unlinks both the
// store and its checkpoint sidecar. It exists for writers whose partial
// output must never be mistaken for resumable state — above all a merge
// destination, which is derived data: the shard stores it was built from
// remain the durable truth, so a failed merge removes its half-written
// dst rather than stranding a plausible-looking store (and a sidecar
// that describes it) in the data directory.
func (w *Writer) Discard() error {
	w.Abort() // double-close after a failed Close is harmless; removal is the contract
	err := os.Remove(w.path)
	if os.IsNotExist(err) {
		err = nil
	}
	if serr := os.Remove(CheckpointPath(w.path)); err == nil && serr != nil && !os.IsNotExist(serr) {
		err = serr
	}
	return err
}
