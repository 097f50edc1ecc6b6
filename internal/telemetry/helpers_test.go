package telemetry

// Readers and accessors that only these tests and fuzz targets use; no
// binary links them. Next and Each are the full decode — every column,
// samples attached — that the fuzz targets hold the projected walks to.

// everyColumn is the mask of Next and Each.
var everyColumn = mask{records: allColumns, nodes: allColumns, points: allColumns, rows: true}

// Next returns the next record, samples attached, or io.EOF after the
// last committed one. Without a checkpoint, a damaged frame ends
// iteration early (Truncated reports that): it is indistinguishable from
// a killed run's uncommitted tail. Inside a checkpointed prefix damage
// is an error — the checkpoint promised those bytes.
func (r *Reader) Next() (Record, error) { return r.next(everyColumn) }

// Each drains the reader: it hands every remaining committed record,
// samples attached, to fn in wearer order and stops at the first error,
// from the walk or from fn, returning it. A record borrows the reader's
// decode buffers until fn returns.
func (r *Reader) Each(fn func(Record) error) error { return r.each(everyColumn, fn) }

// Truncated reports whether iteration ended at a damaged frame instead of
// clean end-of-data (only possible without a checkpoint sidecar). The
// damaged frame's offset is then the reader's limit: everything before
// it verified.
func (r *Reader) Truncated() bool { return r.truncated }

// RawSize is the flat fixed-width encoding size of the record in bytes
// (8 bytes per integer/float column value, 1 bit per flag, rounded up per
// record); the compression ratio iobtrace reports is relative to this.
// Attached series points count at 8 bytes per column value.
func (r *Record) RawSize() int { return rawSize(1, len(r.Nodes), len(r.Series)) }

// Meta returns the store's header metadata.
func (w *Writer) Meta() Meta { return w.meta }
