package telemetry

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"wiban/internal/desim"
)

// checkpoint is the sidecar write-ahead mark. Offset bytes of the data
// file hold Blocks verified blocks covering wearers [0, NextWearer);
// everything past Offset is an uncommitted tail to discard on resume.
type checkpoint struct {
	Offset     int64 `json:"offset"`
	Blocks     int   `json:"blocks"`
	NextWearer int   `json:"next_wearer"`
	// SeedCheck binds the checkpoint to the fleet seed-derivation
	// contract: it must equal desim.DeriveSeed(fleetSeed, 2·NextWearer),
	// the scenario-stream seed of the wearer the resumed sweep starts at.
	SeedCheck int64 `json:"seed_check"`
	// CRC covers the other four fields (see sum). SeedCheck only ties
	// NextWearer to the run, so a bit flip in Offset alone would still
	// pass it — and a trusted garbage offset truncates the store
	// mid-block. The CRC turns any such corruption into a clean fall
	// back to the block scan. Absent (pre-CRC sidecars), the checkpoint
	// is likewise rejected and the scan recovers the same prefix.
	CRC uint32 `json:"crc"`
}

// consistentWith reports whether the checkpoint's offset plausibly
// describes a data file with the given header length and size: inside
// the file, and sitting exactly at the header iff no block is
// committed. The reader's Open and the writer's resume must trust a
// sidecar under the identical predicate, or replay and resume would
// silently diverge — hence one shared method.
func (ck *checkpoint) consistentWith(hdrLen, size int64) bool {
	return ck.Offset >= hdrLen && ck.Offset <= size &&
		(ck.Blocks == 0) == (ck.Offset == hdrLen)
}

// sum is the self-check over the checkpoint's payload fields.
func (ck *checkpoint) sum() uint32 {
	return crc32.ChecksumIEEE(fmt.Appendf(nil, "%d|%d|%d|%d",
		ck.Offset, ck.Blocks, ck.NextWearer, ck.SeedCheck))
}

// CheckpointPath is the sidecar path for a store at path.
func CheckpointPath(path string) string { return path + ".ckpt" }

// writeCheckpoint atomically replaces the sidecar (write temp, rename) so
// a kill mid-write leaves either the old or the new checkpoint, never a
// torn one.
func (w *Writer) writeCheckpoint() error {
	ck := checkpoint{
		Offset:     w.offset,
		Blocks:     w.blocks,
		NextWearer: w.Checkpointed(),
		SeedCheck:  desim.DeriveSeed(w.meta.FleetSeed, 2*uint64(w.Checkpointed())),
	}
	ck.CRC = ck.sum()
	blob, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("telemetry: checkpoint: %w", err)
	}
	tmp := CheckpointPath(w.path) + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("telemetry: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, CheckpointPath(w.path)); err != nil {
		return fmt.Errorf("telemetry: checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint loads and validates the sidecar against meta. A
// mismatched SeedCheck means the checkpoint belongs to a different run
// (or the seed was tampered with); the caller then falls back to a block
// scan.
func readCheckpoint(path string, meta Meta) (checkpoint, error) {
	var ck checkpoint
	blob, err := os.ReadFile(CheckpointPath(path))
	if err != nil {
		return ck, err
	}
	if err := json.Unmarshal(blob, &ck); err != nil {
		return ck, fmt.Errorf("%w: checkpoint: %v", ErrCorrupt, err)
	}
	if ck.CRC != ck.sum() {
		return ck, fmt.Errorf("%w: checkpoint CRC mismatch", ErrCorrupt)
	}
	first, end := meta.Range()
	if ck.NextWearer < first || ck.NextWearer > end || ck.Blocks < 0 || ck.Offset < 0 {
		return ck, fmt.Errorf("%w: implausible checkpoint %+v", ErrCorrupt, ck)
	}
	// Committed blocks hold between 1 and BlockSize records each, so the
	// record count (relative to the store's first wearer) and the block
	// count bound each other; a sidecar outside that envelope is corrupt
	// regardless of its seed check.
	bs := meta.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	committed := ck.NextWearer - first
	if committed < ck.Blocks || int64(committed) > int64(ck.Blocks)*int64(bs) {
		return ck, fmt.Errorf("%w: checkpoint blocks/records mismatch %+v", ErrCorrupt, ck)
	}
	if want := desim.DeriveSeed(meta.FleetSeed, 2*uint64(ck.NextWearer)); ck.SeedCheck != want {
		return ck, fmt.Errorf("%w: checkpoint seed check %d != derived %d (checkpoint from a different run?)",
			ErrCorrupt, ck.SeedCheck, want)
	}
	return ck, nil
}
