package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"wiban/internal/compress"
)

const (
	fileMagic  = "WBTL1\x00"
	blockMagic = "WBLK"
	// maxBlockPayload rejects absurd frame lengths before allocating;
	// a full 4096-record block of 16-node wearers encodes well under it.
	maxBlockPayload = 64 << 20
)

// openFrame appends the head of a block frame — magic and a length that
// closeFrame fills in — to dst, so the payload can be encoded straight
// behind it.
func openFrame(dst []byte) []byte {
	return append(dst, blockMagic+"\x00\x00\x00\x00"...)
}

// closeFrame completes the frame openFrame started at offset start of
// dst, whose payload is everything appended since: it writes the
// payload's length in place and appends its CRC32.
func closeFrame(dst []byte, start int) []byte {
	payload := dst[start+len(blockMagic)+4:]
	binary.LittleEndian.PutUint32(dst[start+len(blockMagic):], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// recordBlock is the record-block body: after the per-record node counts,
// the per-record columns — the cell/foreign-load pair from FormatV1 on,
// the equilibrium pair from FormatV2 on — then the per-node columns.
var recordBlock = nestedBody[NodeRecord]{
	records: []column[Record]{
		{codec: deltaCodec,
			get: func(r *Record) int64 { return int64(r.Events) },
			set: func(r *Record, v int64) { r.Events = uint64(v) }},
		{codec: deltaCodec,
			get: func(r *Record) int64 { return r.HubRxBits },
			set: func(r *Record, v int64) { r.HubRxBits = v }},
		{codec: xorCodec,
			get: func(r *Record) int64 { return floatBits(r.HubUtilization) },
			set: func(r *Record, v int64) { r.HubUtilization = bitsFloat(v) }},
		{codec: deltaCodec, since: FormatV1, // recordCellColumn
			get: func(r *Record) int64 { return int64(r.Cell) },
			set: func(r *Record, v int64) { r.Cell = int(v) }},
		{codec: deltaCodec, since: FormatV1,
			get: func(r *Record) int64 { return r.ForeignLoadPPM },
			set: func(r *Record, v int64) { r.ForeignLoadPPM = v }},
		{codec: deltaCodec, since: FormatV2,
			get: func(r *Record) int64 { return r.EqForeignLoadPPM },
			set: func(r *Record, v int64) { r.EqForeignLoadPPM = v }},
		{codec: deltaCodec, since: FormatV2,
			get: func(r *Record) int64 { return int64(r.FeedbackIters) },
			set: func(r *Record, v int64) { r.FeedbackIters = int(v) }},
	},
	children: []column[NodeRecord]{
		{codec: deltaCodec,
			get: func(n *NodeRecord) int64 { return n.PacketsGenerated },
			set: func(n *NodeRecord, v int64) { n.PacketsGenerated = v }},
		{codec: deltaCodec,
			get: func(n *NodeRecord) int64 { return n.PacketsDelivered },
			set: func(n *NodeRecord, v int64) { n.PacketsDelivered = v }},
		{codec: deltaCodec,
			get: func(n *NodeRecord) int64 { return n.PacketsDropped },
			set: func(n *NodeRecord, v int64) { n.PacketsDropped = v }},
		{codec: deltaCodec,
			get: func(n *NodeRecord) int64 { return n.Transmissions },
			set: func(n *NodeRecord, v int64) { n.Transmissions = v }},
		{codec: deltaCodec,
			get: func(n *NodeRecord) int64 { return n.BitsDelivered },
			set: func(n *NodeRecord, v int64) { n.BitsDelivered = v }},
		{codec: xorCodec,
			get: func(n *NodeRecord) int64 { return floatBits(n.ProjectedLife) },
			set: func(n *NodeRecord, v int64) { n.ProjectedLife = bitsFloat(v) }},
		{codec: xorCodec,
			get: func(n *NodeRecord) int64 { return floatBits(n.LatencyP50) },
			set: func(n *NodeRecord, v int64) { n.LatencyP50 = bitsFloat(v) }},
		{codec: xorCodec,
			get: func(n *NodeRecord) int64 { return floatBits(n.LatencyP99) },
			set: func(n *NodeRecord, v int64) { n.LatencyP99 = bitsFloat(v) }},
		{codec: flagCodec,
			get: func(n *NodeRecord) int64 { return flagBit(n.Perpetual) },
			set: func(n *NodeRecord, v int64) { n.Perpetual = v != 0 }},
		{codec: flagCodec,
			get: func(n *NodeRecord) int64 { return flagBit(n.Died) },
			set: func(n *NodeRecord, v int64) { n.Died = v != 0 }},
	},
	childrenOf: func(r *Record) *[]NodeRecord { return &r.Nodes },
}

// recordCellColumn is the position of the cell column in
// recordBlock.records, which every walk keeps for the index entry.
const recordCellColumn = 3

// encodeBlock encodes recs (consecutive wearers) as a block frame laid
// out per the given format version, appended to dst, with buf as the
// encoder's scratch.
func encodeBlock(dst []byte, buf *columnBuf, recs []Record, version int) []byte {
	start := len(dst)
	dst = openFrame(dst)
	if version >= FormatV3 {
		// v3 payloads lead with the frame kind; the record body that
		// follows is byte-identical to the v2 layout.
		dst = compress.AppendUvarint(dst, kindRecords)
	}
	return closeFrame(recordBlock.append(dst, buf, recs, version), start)
}

// readHeaderFile reads and verifies the header at the start of f —
// magic, meta length, CRC and meta JSON — without loading the rest of
// the store, returning the meta and the header length.
func readHeaderFile(f *os.File) (Meta, int64, error) {
	pre := make([]byte, len(fileMagic)+binary.MaxVarintLen64)
	n, err := f.ReadAt(pre, 0)
	if err != nil && err != io.EOF {
		return Meta{}, 0, fmt.Errorf("telemetry: read header: %w", err)
	}
	pre = pre[:n]
	if len(pre) < len(fileMagic) || string(pre[:len(fileMagic)]) != fileMagic {
		return Meta{}, 0, fmt.Errorf("%w: bad file magic", ErrCorrupt)
	}
	mlen, un := compress.DecodeUvarint(pre[len(fileMagic):])
	if un == 0 || mlen > maxBlockPayload {
		return Meta{}, 0, fmt.Errorf("%w: bad meta length", ErrCorrupt)
	}
	start := int64(len(fileMagic) + un)
	buf := make([]byte, mlen+4)
	if _, err := f.ReadAt(buf, start); err != nil {
		return Meta{}, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	blob := buf[:mlen]
	if crc32.ChecksumIEEE(blob) != binary.LittleEndian.Uint32(buf[mlen:]) {
		return Meta{}, 0, fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	var meta Meta
	if err := json.Unmarshal(blob, &meta); err != nil {
		return Meta{}, 0, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	return meta, start + int64(len(buf)), nil
}

// frameOverhead is the framing around a payload: magic and length ahead
// of it, its CRC behind.
const frameOverhead = len(blockMagic) + 4 + 4

// readFrame reads and CRC-verifies one frame at pos, never past limit,
// and appends the whole frame, framing included, to dst; framePayload
// recovers its payload, and the next frame starts len(frame) bytes on.
// One frame is the unit of reader memory: nothing larger is ever
// resident, and a reader that passes the same dst every time reuses it.
func readFrame(dst []byte, f *os.File, pos, limit int64) ([]byte, error) {
	var hdr [8]byte
	if pos+int64(len(hdr)) > limit {
		return nil, fmt.Errorf("%w: truncated frame", ErrCorrupt)
	}
	if _, err := f.ReadAt(hdr[:], pos); err != nil {
		return nil, fmt.Errorf("%w: frame header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(blockMagic)]) != blockMagic {
		return nil, fmt.Errorf("%w: bad block magic", ErrCorrupt)
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[len(blockMagic):]))
	if plen > maxBlockPayload || pos+int64(frameOverhead)+plen > limit {
		return nil, fmt.Errorf("%w: truncated block payload", ErrCorrupt)
	}
	start := len(dst)
	dst = append(slices.Grow(dst, frameOverhead+int(plen)), hdr[:]...)
	frame := dst[start : start+frameOverhead+int(plen)]
	if _, err := f.ReadAt(frame[len(hdr):], pos+int64(len(hdr))); err != nil {
		return nil, fmt.Errorf("%w: block payload: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(framePayload(frame)) != binary.LittleEndian.Uint32(frame[len(frame)-4:]) {
		return nil, fmt.Errorf("%w: block CRC mismatch", ErrCorrupt)
	}
	return dst[:start+len(frame)], nil
}

// framePayload is the payload of a verified frame (kind prefix included
// in v3 stores).
func framePayload(frame []byte) []byte {
	return frame[len(blockMagic)+4 : len(frame)-4]
}

// ValidPrefix walks the store bytes of f in [from, to) — the header
// first when from is 0, then whole frames — and returns where the run
// of intact pieces ends: every frame before it has its magic, a length
// that fits, and a matching CRC. Nothing is decoded, so the walk costs
// one CRC pass. from must be 0 or a frame boundary. A replica appending
// committed bytes fetched from another daemon checks them with this
// before trusting them — the result is to exactly when the fetch was
// clean — and cuts its partial copy back to ValidPrefix(f, 0, size)
// after a restart.
func ValidPrefix(f *os.File, from, to int64) int64 {
	pos := from
	if pos == 0 {
		_, hdrLen, err := readHeaderFile(f)
		if err != nil || hdrLen > to {
			return 0
		}
		pos = hdrLen
	}
	for pos < to {
		frame, err := readFrame(nil, f, pos, to)
		if err != nil {
			break
		}
		pos += int64(len(frame))
	}
	return pos
}

// splitKind strips the frame-kind selector from a verified payload. Pre-v3
// formats have no selector: every frame is a record block.
func splitKind(payload []byte, version int) (int, []byte, error) {
	if version < FormatV3 {
		return kindRecords, payload, nil
	}
	kind, n := compress.DecodeUvarint(payload)
	if n == 0 || kind > kindIndex {
		return 0, nil, fmt.Errorf("%w: bad frame kind", ErrCorrupt)
	}
	return int(kind), payload[n:], nil
}

// readKind reads and verifies the frame at pos, never past limit, and
// appends it to dst (readFrame); the frame must be of the given kind,
// and its body — the payload past the kind selector — is returned too.
func readKind(dst []byte, f *os.File, pos, limit int64, version, want int) ([]byte, []byte, error) {
	out, err := readFrame(dst, f, pos, limit)
	if err != nil {
		return nil, nil, err
	}
	kind, body, err := splitKind(framePayload(out[len(dst):]), version)
	if err != nil {
		return nil, nil, err
	}
	if kind != want {
		return nil, nil, fmt.Errorf("%w: frame kind %d where kind %d was expected", ErrCorrupt, kind, want)
	}
	return out, body, nil
}
