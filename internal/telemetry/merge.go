package telemetry

import (
	"fmt"
	"io"
	"os"
)

// Shard-store merging. A sharded sweep runs each contiguous wearer range
// [first, end) on its own backend, producing a shard store whose meta
// carries FirstWearer/EndWearer and whose records keep their absolute
// wearer indices. MergeShards walks the shards' record(+series) pairs in
// wearer order into a fresh full-range Writer, and the merged file is
// byte-identical to the store a single-process run of the whole
// population would have written, trailing query index and checkpoint
// sidecar included.
//
// Most pairs are copied, not rebuilt. Writers cut blocks on the absolute
// wearer grid (Writer.Consume) and every codec is deterministic, so a
// verified shard pair holding the block the merged writer cuts next
// (Writer.onGrid) is byte for byte the pair it would commit, and is
// copied unchanged (Writer.splice). Every other pair — the short blocks
// either side of a seam off the grid, and frames an older writer cut at
// FirstWearer+k·BlockSize — is re-encoded through Writer.Consume, which
// re-cuts it at the merged boundaries. A pair is trusted as far as the
// Reader trusts it: bytes no writer produces that still pass every
// check, such as a varint padded with a redundant continuation byte, are
// copied as they are.

// Committed reports a store's durable extent — its meta, the
// checkpoint-covered byte length, and the next wearer index — without
// reading any block. It is the coordinator-facing summary a backend
// serves alongside shard bytes: the returned offset bounds the prefix
// that is safe to replicate while the writer is still appending. A
// missing, corrupt or inconsistent checkpoint sidecar is an error;
// callers retry rather than guess.
func Committed(path string) (Meta, int64, int, error) {
	r, err := Open(path)
	if err != nil {
		return Meta{}, 0, 0, err
	}
	defer r.Close()
	if r.ck == nil {
		return Meta{}, 0, 0, fmt.Errorf("%w: no valid checkpoint sidecar describes %s", ErrCorrupt, path)
	}
	return r.meta, r.ck.Offset, r.ck.NextWearer, nil
}

// rangeless strips the shard-range fields, leaving the sweep identity a
// merge compares across shards and writes into the merged header.
func rangeless(m Meta) Meta {
	m.FirstWearer, m.EndWearer = 0, 0
	return m
}

// MergeShards reassembles the full-population store at dst from complete
// shard stores (in ascending range order) at paths. The shards must share
// one sweep identity, tile [0, Wearers) exactly, and each hold every
// record of its range. Every merged record is also offered to sink (when
// non-nil) in wearer order, so the caller can fold the fingerprint in the
// same pass. The sink sees a record's nodes but never its series samples
// (Series is nil, whether or not its pair was spliced); a Reader over dst
// replays those. Records borrow decoder memory and must not be retained
// past the call.
// Returns the merged store's committed block count and final file size.
// The merged store's checkpoint sidecar is written once, at Close: the
// shard stores, not dst, are the recovery state. On any error the
// half-written dst and its sidecar are removed (Writer.Discard): a failed
// merge leaves no partial store a later recovery could mistake for real
// state — the shard stores remain the durable inputs to retry from.
func MergeShards(dst string, paths []string, sink func(Record) error) (int, int64, error) {
	if len(paths) == 0 {
		return 0, 0, fmt.Errorf("telemetry: merge of zero shards")
	}
	var w *Writer
	var base Meta
	next := 0
	for i, path := range paths {
		r, err := Open(path)
		if err != nil {
			if w != nil {
				w.Discard()
			}
			return 0, 0, fmt.Errorf("telemetry: merge shard %d: %w", i, err)
		}
		meta := r.Meta()
		first, end := meta.Range()
		if i == 0 {
			if first != 0 {
				r.Close()
				return 0, 0, fmt.Errorf("telemetry: merge: first shard starts at wearer %d, not 0", first)
			}
			base = rangeless(meta)
			if w, err = Create(dst, base); err != nil {
				r.Close()
				return 0, 0, fmt.Errorf("telemetry: merge: create merged store: %w", err)
			}
			w.derived = true
		} else if rangeless(meta) != base {
			r.Close()
			w.Discard()
			return 0, 0, fmt.Errorf("telemetry: merge: shard %d meta %+v does not match shard 0 sweep %+v",
				i, rangeless(meta), base)
		}
		if first != next {
			r.Close()
			w.Discard()
			return 0, 0, fmt.Errorf("telemetry: merge: shard %d covers [%d,%d), expected to start at %d",
				i, first, end, next)
		}
		if err := copyShard(r, w, sink); err != nil {
			r.Close()
			w.Discard()
			return 0, 0, fmt.Errorf("telemetry: merge shard %d: %w", i, err)
		}
		got := first + r.Records()
		r.Close()
		if got != end {
			w.Discard()
			return 0, 0, fmt.Errorf("telemetry: merge: shard %d incomplete: holds wearers [%d,%d) of [%d,%d)",
				i, first, got, first, end)
		}
		next = end
	}
	if next != base.Wearers {
		w.Discard()
		return 0, 0, fmt.Errorf("telemetry: merge: shards end at wearer %d, population is %d", next, base.Wearers)
	}
	if err := w.Close(); err != nil {
		w.Discard()
		return 0, 0, fmt.Errorf("telemetry: merge: %w", err)
	}
	blocks := w.Blocks()
	st, err := os.Stat(dst)
	if err != nil {
		w.Discard()
		return 0, 0, fmt.Errorf("telemetry: merge: %w", err)
	}
	return blocks, st.Size(), nil
}

// copyShard walks one shard under the records-only mask, which checks
// every pair exactly as strictly as any read but decodes of its series
// frame only the time column, and hands the records to sink. A pair
// onGrid accepts is spliced; any other pair has its samples decoded from
// the series body the walk already read, and its records go through
// Consume, which copies nodes and series into the writer's arenas, so
// the borrowed decode buffers never outlive their pair even though the
// merged writer buffers records across shard boundaries.
func copyShard(r *Reader, w *Writer, sink func(Record) error) error {
	for {
		if err := r.advance(recordColumns); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		e := r.entries[len(r.entries)-1]
		spliced := w.onGrid(e.firstWearer, e.records)
		if spliced {
			if err := w.splice(r.frames, e); err != nil {
				return err
			}
		} else if r.meta.Series() {
			if err := r.decodeSeries(allColumns); err != nil {
				return err
			}
			seriesFrame.rows(&r.ser, r.block, FormatV3)
		}
		for _, rec := range r.block {
			if !spliced {
				if err := w.Consume(rec); err != nil {
					return err
				}
			}
			rec.Series = nil
			if sink != nil {
				if err := sink(rec); err != nil {
					return err
				}
			}
		}
	}
}
