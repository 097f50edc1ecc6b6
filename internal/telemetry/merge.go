package telemetry

import (
	"fmt"
	"os"
)

// Shard-store merging. A sharded sweep runs each contiguous wearer range
// [first, end) on its own backend, producing a shard store whose meta
// carries FirstWearer/EndWearer and whose records keep their absolute
// wearer indices. MergeShards streams the shards' records, in wearer
// order, through a fresh full-range Writer — re-encoding rather than
// splicing frames. Because block boundaries are a pure function of the
// record sequence and BlockSize, and every codec is deterministic, the
// merged file is byte-identical to the store a single-process run of the
// whole population would have written, trailing query index included.
//
// Series frames ride the same path. A shard's block boundaries differ
// from the merged ones (a shard covering [100,200) at BlockSize 64
// blocks at 100/164, the single writer at 64/128/192), so series frames
// cannot be spliced either: the shard Reader re-pairs each record block
// with its series frame and attaches the decoded samples to rec.Series,
// Writer.Consume copies them into its block arena (records offered to
// the merge borrow decoder memory, exactly the engine's Sink contract),
// and the merged writer re-cuts record+series pairs at its own
// boundaries, committing each pair in one write. A sharded -series
// sweep therefore merges byte-identical too — samples, gap markers and
// index columns included.

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
// same pass; records — their node AND series slices — borrow decoder
// memory and must not be retained past the call.
// Returns the merged store's committed block count and final file size.
// On any error the half-written dst and its checkpoint sidecar are
// removed (Writer.Discard): a failed merge leaves no partial store a
// later recovery could mistake for real state — the shard stores remain
// the durable inputs to retry from.
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

// copyShard streams one shard's records into the merged writer and sink.
// The Reader attaches each block's decoded series samples to rec.Series
// before handing the record over, and Consume copies nodes and series
// into the writer's arenas, so the borrowed decode buffers never outlive
// the shard block they came from even though the merged writer buffers
// records across shard boundaries.
func copyShard(r *Reader, w *Writer, sink func(Record) error) error {
	return r.Each(func(rec Record) error {
		if err := w.Consume(rec); err != nil || sink == nil {
			return err
		}
		return sink(rec)
	})
}
