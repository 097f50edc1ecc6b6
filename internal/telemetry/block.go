package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"wiban/internal/compress"
)

const (
	fileMagic  = "WBTL1\x00"
	blockMagic = "WBLK"
	// maxBlockPayload rejects absurd frame lengths before allocating;
	// a full 4096-record block of 16-node wearers encodes well under it.
	maxBlockPayload = 64 << 20
)

// appendFrame wraps payload in the block framing: magic, length, payload,
// CRC32 of the payload.
func appendFrame(dst, payload []byte) []byte {
	dst = append(dst, blockMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// encodeBlock encodes recs (consecutive wearers) into a framed block laid
// out per the given format version.
func encodeBlock(recs []Record, version int) []byte {
	n := len(recs)
	total := 0
	for i := range recs {
		total += len(recs[i].Nodes)
	}

	// Gather columns. The per-record integer columns ride in one scratch
	// slice reused per column; node columns are flattened across the
	// block in record order.
	ints := make([]int64, 0, total)
	floats := make([]float64, 0, total)
	bools := make([]bool, 0, total)

	var payload []byte
	if version >= FormatV3 {
		// v3 payloads lead with the frame kind; the record body that
		// follows is byte-identical to the v2 layout.
		payload = compress.AppendUvarint(payload, kindRecords)
	}
	payload = compress.AppendUvarint(payload, uint64(recs[0].Wearer))
	payload = compress.AppendUvarint(payload, uint64(n))
	payload = compress.AppendUvarint(payload, uint64(total))

	perRecord := []func(r *Record) int64{
		func(r *Record) int64 { return int64(len(r.Nodes)) },
		func(r *Record) int64 { return int64(r.Events) },
		func(r *Record) int64 { return r.HubRxBits },
	}
	for _, get := range perRecord {
		ints = ints[:0]
		for i := range recs {
			ints = append(ints, get(&recs[i]))
		}
		payload = compress.AppendDeltaInts(payload, ints)
	}
	floats = floats[:0]
	for i := range recs {
		floats = append(floats, recs[i].HubUtilization)
	}
	payload = compress.AppendXorFloats(payload, floats)
	if version >= FormatV1 {
		for _, get := range []func(r *Record) int64{
			func(r *Record) int64 { return int64(r.Cell) },
			func(r *Record) int64 { return r.ForeignLoadPPM },
		} {
			ints = ints[:0]
			for i := range recs {
				ints = append(ints, get(&recs[i]))
			}
			payload = compress.AppendDeltaInts(payload, ints)
		}
	}
	if version >= FormatV2 {
		for _, get := range []func(r *Record) int64{
			func(r *Record) int64 { return r.EqForeignLoadPPM },
			func(r *Record) int64 { return int64(r.FeedbackIters) },
		} {
			ints = ints[:0]
			for i := range recs {
				ints = append(ints, get(&recs[i]))
			}
			payload = compress.AppendDeltaInts(payload, ints)
		}
	}

	perNode := []func(nr *NodeRecord) int64{
		func(nr *NodeRecord) int64 { return nr.PacketsGenerated },
		func(nr *NodeRecord) int64 { return nr.PacketsDelivered },
		func(nr *NodeRecord) int64 { return nr.PacketsDropped },
		func(nr *NodeRecord) int64 { return nr.Transmissions },
		func(nr *NodeRecord) int64 { return nr.BitsDelivered },
	}
	for _, get := range perNode {
		ints = ints[:0]
		for i := range recs {
			for j := range recs[i].Nodes {
				ints = append(ints, get(&recs[i].Nodes[j]))
			}
		}
		payload = compress.AppendDeltaInts(payload, ints)
	}
	perNodeF := []func(nr *NodeRecord) float64{
		func(nr *NodeRecord) float64 { return nr.ProjectedLife },
		func(nr *NodeRecord) float64 { return nr.LatencyP50 },
		func(nr *NodeRecord) float64 { return nr.LatencyP99 },
	}
	for _, get := range perNodeF {
		floats = floats[:0]
		for i := range recs {
			for j := range recs[i].Nodes {
				floats = append(floats, get(&recs[i].Nodes[j]))
			}
		}
		payload = compress.AppendXorFloats(payload, floats)
	}
	perNodeB := []func(nr *NodeRecord) bool{
		func(nr *NodeRecord) bool { return nr.Perpetual },
		func(nr *NodeRecord) bool { return nr.Died },
	}
	for _, get := range perNodeB {
		bools = bools[:0]
		for i := range recs {
			for j := range recs[i].Nodes {
				bools = append(bools, get(&recs[i].Nodes[j]))
			}
		}
		payload = compress.PackBools(payload, bools)
	}

	return appendFrame(nil, payload)
}

// decodeBlock inverts encodeBlock on a verified payload, under the
// column layout of the given format version.
func decodeBlock(payload []byte, version int) ([]Record, error) {
	pos := 0
	header := make([]uint64, 3)
	for i := range header {
		v, n := compress.DecodeUvarint(payload[pos:])
		if n == 0 {
			return nil, fmt.Errorf("%w: block header", ErrCorrupt)
		}
		header[i] = v
		pos += n
	}
	first, count, total := int(header[0]), int(header[1]), int(header[2])
	if count <= 0 || count > maxBlockPayload || total < 0 || total > maxBlockPayload {
		return nil, fmt.Errorf("%w: implausible block header (%d records, %d nodes)", ErrCorrupt, count, total)
	}
	// Every element costs at least one encoded byte (4 per-record columns,
	// 8 per-node varint columns; the bit-packed flags are gravy), so a
	// header whose counts could not fit the payload is forged — reject it
	// before allocating count/total-sized columns.
	if 4*count+8*total > len(payload) {
		return nil, fmt.Errorf("%w: block header claims %d records, %d nodes in %d payload bytes",
			ErrCorrupt, count, total, len(payload))
	}

	intCol := func(n int) ([]int64, error) {
		col := make([]int64, n)
		used, err := compress.DecodeDeltaInts(payload[pos:], col)
		pos += used
		return col, err
	}
	floatCol := func(n int) ([]float64, error) {
		col := make([]float64, n)
		used, err := compress.DecodeXorFloats(payload[pos:], col)
		pos += used
		return col, err
	}
	boolCol := func(n int) ([]bool, error) {
		need := compress.PackedBoolLen(n)
		if pos+need > len(payload) {
			return nil, fmt.Errorf("%w: truncated flag column", ErrCorrupt)
		}
		col := make([]bool, n)
		err := compress.UnpackBools(payload[pos:pos+need], col)
		pos += need
		return col, err
	}

	nodeCounts, err := intCol(count)
	if err != nil {
		return nil, err
	}
	sum := 0
	for _, c := range nodeCounts {
		if c < 0 {
			return nil, fmt.Errorf("%w: negative node count", ErrCorrupt)
		}
		sum += int(c)
	}
	if sum != total {
		return nil, fmt.Errorf("%w: node counts sum %d, header says %d", ErrCorrupt, sum, total)
	}
	events, err := intCol(count)
	if err != nil {
		return nil, err
	}
	hubRx, err := intCol(count)
	if err != nil {
		return nil, err
	}
	hubUtil, err := floatCol(count)
	if err != nil {
		return nil, err
	}
	var cells, foreign []int64
	if version >= FormatV1 {
		if cells, err = intCol(count); err != nil {
			return nil, err
		}
		if foreign, err = intCol(count); err != nil {
			return nil, err
		}
	}
	var eqForeign, feedbackIters []int64
	if version >= FormatV2 {
		if eqForeign, err = intCol(count); err != nil {
			return nil, err
		}
		if feedbackIters, err = intCol(count); err != nil {
			return nil, err
		}
	}
	var nodeInts [5][]int64
	for i := range nodeInts {
		if nodeInts[i], err = intCol(total); err != nil {
			return nil, err
		}
	}
	var nodeFloats [3][]float64
	for i := range nodeFloats {
		if nodeFloats[i], err = floatCol(total); err != nil {
			return nil, err
		}
	}
	var nodeBools [2][]bool
	for i := range nodeBools {
		if nodeBools[i], err = boolCol(total); err != nil {
			return nil, err
		}
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(payload)-pos)
	}

	recs := make([]Record, count)
	nodes := make([]NodeRecord, total)
	off := 0
	for i := range recs {
		nc := int(nodeCounts[i])
		recs[i] = Record{
			Wearer:         first + i,
			Events:         uint64(events[i]),
			HubRxBits:      hubRx[i],
			HubUtilization: hubUtil[i],
			Cell:           -1, // v0 stores predate spectrum coupling
			Nodes:          nodes[off : off+nc : off+nc],
		}
		if version >= FormatV1 {
			recs[i].Cell = int(cells[i])
			recs[i].ForeignLoadPPM = foreign[i]
		}
		if version >= FormatV2 {
			recs[i].EqForeignLoadPPM = eqForeign[i]
			recs[i].FeedbackIters = int(feedbackIters[i])
		}
		for j := 0; j < nc; j++ {
			nodes[off+j] = NodeRecord{
				PacketsGenerated: nodeInts[0][off+j],
				PacketsDelivered: nodeInts[1][off+j],
				PacketsDropped:   nodeInts[2][off+j],
				Transmissions:    nodeInts[3][off+j],
				BitsDelivered:    nodeInts[4][off+j],
				ProjectedLife:    nodeFloats[0][off+j],
				LatencyP50:       nodeFloats[1][off+j],
				LatencyP99:       nodeFloats[2][off+j],
				Perpetual:        nodeBools[0][off+j],
				Died:             nodeBools[1][off+j],
			}
		}
		off += nc
	}
	return recs, nil
}

// decodeHeader parses and verifies a file header held in data, returning
// the meta and header length.
func decodeHeader(data []byte) (Meta, int, error) {
	var meta Meta
	if len(data) < len(fileMagic) || string(data[:len(fileMagic)]) != fileMagic {
		return meta, 0, fmt.Errorf("%w: bad file magic", ErrCorrupt)
	}
	pos := len(fileMagic)
	mlen, n := compress.DecodeUvarint(data[pos:])
	if n == 0 || mlen > maxBlockPayload {
		return meta, 0, fmt.Errorf("%w: bad meta length", ErrCorrupt)
	}
	pos += n
	if int64(len(data)) < int64(pos)+int64(mlen)+4 {
		return meta, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	blob := data[pos : pos+int(mlen)]
	pos += int(mlen)
	if crc32.ChecksumIEEE(blob) != binary.LittleEndian.Uint32(data[pos:]) {
		return meta, 0, fmt.Errorf("%w: header CRC mismatch", ErrCorrupt)
	}
	pos += 4
	if err := json.Unmarshal(blob, &meta); err != nil {
		return meta, 0, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	return meta, pos, nil
}

// readHeaderFile reads and verifies the header at the start of f without
// loading the rest of the store.
func readHeaderFile(f *os.File) (Meta, int64, error) {
	pre := make([]byte, len(fileMagic)+10)
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
	hdrLen := len(fileMagic) + un + int(mlen) + 4
	buf := make([]byte, hdrLen)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(hdrLen)), buf); err != nil {
		return Meta{}, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	meta, got, err := decodeHeader(buf)
	if err != nil {
		return Meta{}, 0, err
	}
	return meta, int64(got), nil
}

// readFramePayload reads and CRC-verifies one frame at pos, never past
// limit, returning the raw payload (kind prefix included in v3 stores)
// and the offset just past the frame. One frame is the unit of reader
// memory: nothing larger is ever resident.
func readFramePayload(f *os.File, pos, limit int64) ([]byte, int64, error) {
	var hdr [8]byte
	if pos+int64(len(hdr)) > limit {
		return nil, 0, fmt.Errorf("%w: truncated frame", ErrCorrupt)
	}
	if _, err := f.ReadAt(hdr[:], pos); err != nil {
		return nil, 0, fmt.Errorf("%w: frame header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(blockMagic)]) != blockMagic {
		return nil, 0, fmt.Errorf("%w: bad block magic", ErrCorrupt)
	}
	plen := int64(binary.LittleEndian.Uint32(hdr[len(blockMagic):]))
	if plen > maxBlockPayload || pos+int64(len(hdr))+plen+4 > limit {
		return nil, 0, fmt.Errorf("%w: truncated block payload", ErrCorrupt)
	}
	buf := make([]byte, plen+4)
	if _, err := f.ReadAt(buf, pos+int64(len(hdr))); err != nil {
		return nil, 0, fmt.Errorf("%w: block payload: %v", ErrCorrupt, err)
	}
	payload := buf[:plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[plen:]) {
		return nil, 0, fmt.Errorf("%w: block CRC mismatch", ErrCorrupt)
	}
	return payload, pos + int64(len(hdr)) + plen + 4, nil
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
		_, end, err := readFramePayload(f, pos, to)
		if err != nil {
			break
		}
		pos = end
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

// readFrameAt reads, verifies and decodes one record block at pos, never
// past limit, returning the decoded records and the offset just past the
// frame. In a v3 store the frame must actually be a record block.
func readFrameAt(f *os.File, pos, limit int64, version int) ([]Record, int64, error) {
	payload, end, err := readFramePayload(f, pos, limit)
	if err != nil {
		return nil, 0, err
	}
	kind, body, err := splitKind(payload, version)
	if err != nil {
		return nil, 0, err
	}
	if kind != kindRecords {
		return nil, 0, fmt.Errorf("%w: frame kind %d where a record block was expected", ErrCorrupt, kind)
	}
	recs, err := decodeBlock(body, version)
	if err != nil {
		return nil, 0, err
	}
	return recs, end, nil
}
