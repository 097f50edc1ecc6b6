// Package telemetry is the streaming fleet-telemetry store: an
// append-only, columnar, CRC-protected file format the fleet engine
// writes one compact record into per completed wearer, so a
// million-wearer sweep never holds more than one block of results in
// memory and an interrupted sweep resumes from its last committed block.
//
// # File format
//
// A store is a single file:
//
//	header := magic "WBTL1\x00" | uvarint len(metaJSON) | metaJSON | crc32(metaJSON)
//	block  := magic "WBLK" | uint32 len(payload) | payload | crc32(payload)
//	file   := header block*
//
// All fixed-width integers are little-endian; crc32 is IEEE. Records are
// strictly ordered by wearer index, starting at the store's first wearer
// (0 unless it is a shard store). Blocks are cut on the absolute wearer
// grid: one commits whenever the next wearer index is a multiple of
// BlockSize, so a full-range store holds BlockSize records per block
// (the final block may be short), and a shard store starting off the
// grid holds one short first block, then exactly the blocks a full-range
// store holds over the same wearers — the frames MergeShards splices. A
// block payload is columnar:
//
//	uvarint firstWearer | uvarint records | uvarint totalNodes
//	per-record columns: nodeCount, events, hubRxBits (zigzag-delta
//	    varint) and hubUtilization (XOR-prev varint of float bits);
//	    format v1 appends two more per-record integer columns, cell and
//	    foreignLoadPPM (zigzag-delta varint), for spectrum-coupled
//	    sweeps, and format v2 another two, eqForeignLoadPPM and
//	    feedbackIters, for feedback-coupled sweeps — the meta's version
//	    field selects the layout
//	flattened per-node columns: packetsGenerated, packetsDelivered,
//	    packetsDropped, transmissions, bitsDelivered (zigzag-delta
//	    varint); projectedLife, latencyP50, latencyP99 (XOR-prev varint);
//	    perpetual, died (bit-packed)
//
// Each frame kind declares this layout once, as an ordered column table
// (recordBlock in block.go; seriesFrame and indexColumns in series.go),
// and one encoder and one decoder in codec.go walk every table. A
// column's since field names the format version that added it. The
// decoder projects: it decodes the columns its caller keeps into reused
// slices and checks the others exactly as strictly without decoding
// them; an optional row step then builds Record, NodeRecord and
// SeriesPoint rows from the kept columns. The wire codecs themselves
// live in wiban/internal/compress.
//
// # Format v3: frame kinds, series frames, query index
//
// From format v3 every frame payload begins with a uvarint kind
// selector; pre-v3 payloads carry the record body directly, so v0–v2
// stores decode unchanged and a v3 store written without series frames
// differs from a v2 store only in the header's version field:
//
//	payload := uvarint kind | body
//	kind 0 (records) — the v2 columnar record body above
//	kind 1 (series)  — per-node in-run time series for the wearers of
//	    the immediately preceding record block, committed in the same
//	    file write (a torn pair discards both on resume):
//	    uvarint firstWearer | records | totalPoints, per-record point
//	    counts (delta varint), then flattened point columns — node and
//	    queueDepth (zigzag-delta varint), timeMS (delta-of-delta
//	    varint, Gorilla-style), charge, linkPER and collisionRate
//	    (XOR-prev varint of float bits; NaN marks a window with no
//	    transmission attempts — a gap, never a fake zero)
//	kind 2 (index)   — one trailing frame Close writes PAST the final
//	    checkpoint: per block-pair, the record and series frame offsets
//	    plus label ranges (min/max sample time, cell range, node count)
//	    QueryStore prunes on. It is never checkpointed, so Resume
//	    discards and deterministically rewrites it — kill/resume stores
//	    stay byte-identical — and a reader that ignores it sees exactly
//	    the checkpointed record stream.
//
// QueryStore aggregates one metric (charge, queue, per, collisions) over
// a time/cell/node range — sum, mean, min/max and exact sorted-sample
// percentiles. It locates the index via the checkpoint sidecar and reads
// only the pairs whose entry overlaps the range; when either is missing,
// it folds during one walk of the committed prefix (bit-identical
// results). Each pair is read under the query's mask: the cell, node,
// time and metric columns decode, no rows are built, and every other
// column is checked as strictly. A wearer-major store's blocks each span
// the whole run, so time bounds rarely prune one; the mask is what keeps
// a query cheap. iobtrace query is the CLI face.
//
// # Checkpoint and resume semantics
//
// The writer keeps a sidecar checkpoint at <path>.ckpt, rewritten
// atomically (write-temp-then-rename) after every committed block — a
// write-ahead mark that the data file is valid up to Offset and that the
// next record to arrive is NextWearer. The checkpoint also stores
// SeedCheck = desim.DeriveSeed(meta.FleetSeed, 2·NextWearer) — the
// scenario-stream seed of the next wearer under the fleet layer's pinned
// stream-ID mapping — so a checkpoint pasted next to the wrong data file
// (or a tampered fleet seed) is rejected instead of silently resuming a
// different population — plus a self-CRC over all of its fields, so a
// corrupted sidecar (a flipped offset bit the seed check cannot see)
// falls back to the CRC block scan instead of truncating the store at a
// garbage offset.
//
// A killed process loses at most the tail records buffered for the
// not-yet-committed block: Resume (writer.go) walks the committed pairs
// once with a Reader, truncates the data file back to where the walk
// ended, and the fleet engine re-simulates from NextWearer. Because
// every per-wearer simulation is a pure function of (fleetSeed, wearer),
// the resumed sweep reproduces the interrupted one bit-for-bit, and the
// re-aggregated report carries the identical fingerprint — the resume
// golden test in internal/fleet pins that.
package telemetry

import (
	"errors"
	"fmt"
)

// DefaultBlockSize is the record count per committed block. At ~40–70
// encoded bytes per wearer a block is a few tens of kilobytes — small
// enough that a kill loses under a thousand re-simulatable wearers, large
// enough that delta columns amortize their first-value cost.
const DefaultBlockSize = 1024

// Block-format versions. The version is recorded in the header meta and
// selects the column layout of every block in the file; a store never
// mixes versions.
const (
	// FormatV0 is the original column set (PR 2).
	FormatV0 = 0
	// FormatV1 adds two per-record columns for spectrum-coupled sweeps:
	// the wearer's spatial cell and the foreign co-channel offered load
	// (PPM) it saw. Uncoupled sweeps store cell −1 / load 0, which the
	// delta codec compresses to ~2 bytes per record.
	FormatV1 = 1
	// FormatV2 adds two more per-record columns for feedback-coupled
	// sweeps: the equilibrium (collision-retry-inflated) foreign load in
	// PPM and the cell's fixed-point round count. First-order sweeps
	// store zeros, which again cost ~2 bytes per record.
	FormatV2 = 2
	// FormatV3 introduces frame kinds: every frame payload starts with a
	// uvarint kind selector, admitting per-node time-series frames paired
	// with their record blocks and a trailing query index alongside the
	// record blocks of v2. Pre-v3 payloads carry the record body directly,
	// so v0–v2 stores are byte-identical under both readings.
	FormatV3 = 3
	// CurrentFormat is what new stores are written as. Writers that need
	// byte-identical output against a v2 golden (series disabled) must ask
	// for FormatV2 explicitly.
	CurrentFormat = FormatV3
)

// Frame kinds of a FormatV3 payload (first uvarint). Pre-v3 frames have
// no kind selector and are all record blocks.
const (
	kindRecords = 0 // columnar wearer-record block (the v2 body)
	kindSeries  = 1 // per-node time-series columns paired with the preceding record block
	kindIndex   = 2 // trailing per-block query index (offsets, time/cell ranges)
)

// ErrCorrupt reports a store whose framing, CRC or column payload does
// not decode.
var ErrCorrupt = errors.New("telemetry: corrupt store")

// ErrMismatch reports a store that describes a different sweep than the
// one Resume was asked to continue in it.
var ErrMismatch = errors.New("store describes a different sweep")

// Meta identifies the sweep a store belongs to. It is written once in the
// file header; Resume and the iobtrace CLI use it to re-derive the run.
type Meta struct {
	// FleetSeed is the fleet seed every per-wearer seed derives from.
	FleetSeed int64 `json:"fleet_seed"`
	// Wearers is the target population of the sweep (the store holds
	// records for wearers [0, NextWearer) ⊆ [0, Wearers)).
	Wearers int `json:"wearers"`
	// SpanSeconds is the simulated span per wearer.
	SpanSeconds float64 `json:"span_seconds"`
	// Scenario is an opaque tag describing the scenario generator's
	// parameters. Resume refuses a store whose tag differs from the
	// caller's, since a changed scenario would splice two different
	// populations into one file.
	Scenario string `json:"scenario,omitempty"`
	// BlockSize is the records-per-block the writer commits at; 0 means
	// DefaultBlockSize.
	BlockSize int `json:"block_size"`
	// Version is the block-format version (FormatV0 when absent, so
	// pre-versioning stores keep decoding).
	Version int `json:"version,omitempty"`
	// Cells is the spatial cell count of a spectrum-coupled sweep; 0
	// means the sweep was uncoupled. Coupled sweeps need FormatV1: the
	// cell and interference columns are part of the replayed state, and
	// dropping them would break resume fingerprints.
	Cells int `json:"cells,omitempty"`
	// Feedback records that the sweep closed the collision→retry→
	// offered-load loop (fleet.Coupling.Feedback). Feedback sweeps need
	// FormatV2: the equilibrium columns are replayed state too.
	Feedback bool `json:"feedback,omitempty"`
	// SeriesCadenceSeconds is the in-run sampling cadence of a
	// series-enabled sweep (quantized up to the TDMA superframe by the
	// kernel); 0 means no series frames were recorded. Series need
	// FormatV3. The omitempty tag keeps series-off meta JSON — and hence
	// the whole header — byte-identical to a v2 store's.
	SeriesCadenceSeconds float64 `json:"series_cadence_seconds,omitempty"`
	// FirstWearer and EndWearer bound the wearer range of a SHARD store:
	// one contiguous slice [FirstWearer, EndWearer) of a Wearers-sized
	// sweep, run by one backend of a sharded dispatch. Both zero (the
	// omitempty default) means the store covers the full population —
	// EndWearer 0 reads as Wearers — so every pre-shard store, and every
	// store a merged sharded sweep produces, keeps a byte-identical
	// header. Records still carry absolute wearer indices, and the
	// checkpoint seed check still derives from them, so a shard store is
	// a first-class resumable store over its sub-range.
	FirstWearer int `json:"first_wearer,omitempty"`
	EndWearer   int `json:"end_wearer,omitempty"`
}

// Range reports the wearer interval [first, end) the store covers:
// [0, Wearers) unless the meta describes a shard store.
func (m *Meta) Range() (first, end int) {
	end = m.EndWearer
	if end == 0 {
		end = m.Wearers
	}
	return m.FirstWearer, end
}

// Series reports whether the store carries time-series frames.
func (m *Meta) Series() bool { return m.SeriesCadenceSeconds > 0 }

func (m *Meta) validate() error {
	if m.Wearers <= 0 {
		return fmt.Errorf("telemetry: non-positive wearer count %d", m.Wearers)
	}
	if m.SpanSeconds <= 0 {
		return fmt.Errorf("telemetry: non-positive span %g", m.SpanSeconds)
	}
	if m.BlockSize < 0 {
		return fmt.Errorf("telemetry: negative block size %d", m.BlockSize)
	}
	if err := checkVersion(*m); err != nil {
		return err
	}
	if m.Cells < 0 {
		return fmt.Errorf("telemetry: negative cell count %d", m.Cells)
	}
	if m.Cells > 0 && m.Version < FormatV1 {
		return fmt.Errorf("telemetry: coupled sweep (%d cells) needs format v%d, store is v%d",
			m.Cells, FormatV1, m.Version)
	}
	if m.Feedback && m.Cells == 0 {
		return fmt.Errorf("telemetry: feedback sweep without cells")
	}
	if m.Feedback && m.Version < FormatV2 {
		return fmt.Errorf("telemetry: feedback sweep needs format v%d, store is v%d", FormatV2, m.Version)
	}
	if m.SeriesCadenceSeconds < 0 {
		return fmt.Errorf("telemetry: negative series cadence %g", m.SeriesCadenceSeconds)
	}
	if m.Series() && m.Version < FormatV3 {
		return fmt.Errorf("telemetry: series-enabled sweep needs format v%d, store is v%d", FormatV3, m.Version)
	}
	if m.FirstWearer < 0 || m.EndWearer < 0 {
		return fmt.Errorf("telemetry: negative shard range [%d,%d)", m.FirstWearer, m.EndWearer)
	}
	first, end := m.Range()
	if first >= end || end > m.Wearers {
		return fmt.Errorf("telemetry: shard range [%d,%d) outside population %d", first, end, m.Wearers)
	}
	return nil
}

// RequiredVersion is the oldest format that can represent a sweep:
// uncoupled sweeps read and write any version, coupled sweeps need the v1
// cell columns, feedback sweeps the v2 equilibrium columns, and series
// sampling the v3 series frames.
func RequiredVersion(cells int, feedback, series bool) int {
	switch {
	case series:
		return FormatV3
	case feedback:
		return FormatV2
	case cells > 0:
		return FormatV1
	}
	return FormatV0
}

// adoptVersion picks the format a resumed sweep continues in: the store's
// own (older) format when it can still represent the requested sweep, and
// the current format otherwise — so Resume's meta comparison surfaces the
// mismatch instead of the writer silently dropping columns.
func adoptVersion(storeVersion, cells int, feedback, series bool) int {
	if storeVersion >= RequiredVersion(cells, feedback, series) {
		return storeVersion
	}
	return CurrentFormat
}

// CreateVersion picks the format for a freshly created store: the v3
// series frames only when the sweep samples series, and otherwise exactly
// the format the previous release wrote — a series-off sweep must produce
// a byte-identical store, not a gratuitous v3 one (pinned by
// TestSeriesOffStoreByteGolden).
func CreateVersion(series bool) int {
	if series {
		return FormatV3
	}
	return FormatV2
}

// checkVersion rejects stores written by a newer (or nonsensical) format
// than this binary decodes.
func checkVersion(m Meta) error {
	if m.Version < FormatV0 || m.Version > CurrentFormat {
		return fmt.Errorf("telemetry: unsupported format version %d (max %d)", m.Version, CurrentFormat)
	}
	return nil
}

// NodeRecord is the per-node slice of a wearer's telemetry: exactly the
// fields fleet-level aggregation consumes, in simulation units (seconds
// for durations).
type NodeRecord struct {
	PacketsGenerated int64
	PacketsDelivered int64
	PacketsDropped   int64
	Transmissions    int64
	BitsDelivered    int64
	ProjectedLife    float64 // seconds
	LatencyP50       float64 // seconds
	LatencyP99       float64 // seconds
	Perpetual        bool
	Died             bool
}

// Record is one wearer's telemetry. Records enter the store in strictly
// increasing Wearer order with no gaps.
type Record struct {
	Wearer         int
	Events         uint64
	HubRxBits      int64
	HubUtilization float64
	// Cell is the wearer's spectrum cell in a coupled sweep, −1 when the
	// sweep was uncoupled (and in every record decoded from a FormatV0
	// store).
	Cell int
	// ForeignLoadPPM is the first-order co-channel offered load (airtime
	// parts-per-million, see internal/spectrum) this wearer saw from the
	// rest of its cell; 0 when uncoupled.
	ForeignLoadPPM int64
	// EqForeignLoadPPM is the equilibrium foreign load — the first-order
	// load inflated by collision-driven retransmissions at the cell's
	// fixed point; 0 unless the sweep closed the feedback loop (and in
	// every record decoded from a pre-FormatV2 store).
	EqForeignLoadPPM int64
	// FeedbackIters is the wearer's cell's fixed-point round count; 0
	// unless the sweep closed the feedback loop.
	FeedbackIters int
	Nodes         []NodeRecord
	// Series holds the wearer's in-run samples in (time, node) order; nil
	// unless the sweep recorded series (meta.Series()). Stored in a
	// separate series frame paired with the wearer's record block.
	Series []SeriesPoint
}

// SeriesPoint is one in-run per-node sample, as the bannet kernel
// appends it to its Report and the store keeps it: the in-run dynamics
// (battery drain, queue growth under collision storms, per-window link
// quality) that the end-of-run node summary integrates away.
type SeriesPoint struct {
	Node   int   // index into the wearer's node list
	TimeMS int64 // simulated sampling instant, integer milliseconds
	// Charge is the battery state of charge in [0,1]; 1.0 for nodes
	// whose battery is never debited.
	Charge float64
	// QueueDepth is the number of packets waiting at the sampling instant.
	QueueDepth int
	// LinkPER is the fraction of transmission attempts since the previous
	// sample that failed (link loss and collisions combined), and
	// CollisionRate the fraction attributed to cross-wearer collisions.
	// Both are NaN for a window with no attempts — a gap the fleet
	// aggregation layer skips (StreamDist NaN policy), never a fake zero.
	LinkPER       float64
	CollisionRate float64
}

// rawSize is the flat fixed-width encoding size in bytes of records
// records holding nodes nodes and points series points between them (8
// bytes per integer/float column value, 1 bit per flag, rounded up per
// record; 8 bytes per series column value); the compression ratio
// iobtrace reports is relative to it.
func rawSize(records, nodes, points int) int {
	return records*3*8 + nodes*(8*8+1) + points*6*8
}
