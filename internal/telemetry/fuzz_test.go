package telemetry

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"wiban/internal/compress"
	"wiban/internal/desim"
)

// storeBytes renders a small valid store (header + a few blocks) in
// memory for fuzz seeding.
func storeBytes(f *testing.F, version int) []byte {
	f.Helper()
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.wtl")
	w, err := Create(path, fuzzMeta(version))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rec := testRecord(i)
		if version < FormatV1 {
			rec.Cell, rec.ForeignLoadPPM = -1, 0
		}
		if version < FormatV2 {
			rec.EqForeignLoadPPM, rec.FeedbackIters = 0, 0
		}
		if err := w.Consume(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// fuzzMeta is the meta of the storeBytes store at format version.
func fuzzMeta(version int) Meta {
	meta := Meta{FleetSeed: 42, Wearers: 24, SpanSeconds: 30, BlockSize: 8, Version: version}
	if version >= FormatV1 {
		meta.Cells = 5
	}
	if version >= FormatV2 {
		meta.Feedback = true
	}
	return meta
}

// seriesStoreBytes renders a small valid series-enabled (v3) store in
// memory for fuzz seeding.
func seriesStoreBytes(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "series-seed.wtl")
	meta := Meta{FleetSeed: 42, Wearers: 24, SpanSeconds: 30, BlockSize: 8,
		Version: FormatV3, Cells: 5, Feedback: true, SeriesCadenceSeconds: 0.5}
	w, err := Create(path, meta)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Consume(seriesRecord(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// shardSeriesStoreBytes renders a v3 shard store — nonzero FirstWearer,
// record+series pairs whose block boundaries (20/28/36) straddle the
// merged store's 0-based grid — for fuzz seeding: both readers and the
// Resume scan must key wearer contiguity on the store's own range, never
// on wearer 0.
func shardSeriesStoreBytes(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "shard-seed.wtl")
	meta := Meta{FleetSeed: 42, Wearers: 44, SpanSeconds: 30, BlockSize: 8,
		Version: FormatV3, Cells: 5, Feedback: true, SeriesCadenceSeconds: 0.5,
		FirstWearer: 20}
	w, err := Create(path, meta)
	if err != nil {
		f.Fatal(err)
	}
	for i := 20; i < 44; i++ {
		if err := w.Consume(seriesRecord(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReader throws corrupted, truncated and adversarial byte streams at
// both reader modes (checkpoint-less Open and OpenStrict), under every
// consumer's mask, and at the Resume scan fallback. The contract under
// fuzz: never panic, never allocate unboundedly from forged headers,
// always terminate — a damaged stream must end in a clean error or a
// truncation, not an over-read — and reach one verdict whatever a walk
// decodes.
func FuzzReader(f *testing.F) {
	valid := storeBytes(f, CurrentFormat)
	f.Add(valid)
	f.Add(storeBytes(f, FormatV0))
	f.Add(storeBytes(f, FormatV1))
	f.Add(storeBytes(f, FormatV2))
	// Series-enabled v3 stores: whole, sans index, and torn mid-pair (the
	// record frame committed, its series frame cut short).
	series := seriesStoreBytes(f)
	f.Add(series)
	f.Add(series[:len(series)-50])
	f.Add(series[:2*len(series)/3])
	// Shard stores (nonzero FirstWearer) with seam-straddling series
	// pairs: whole, torn mid-pair, and truncated mid-block.
	shard := shardSeriesStoreBytes(f)
	f.Add(shard)
	f.Add(shard[:len(shard)-60])
	f.Add(shard[:len(shard)/2])
	f.Add([]byte{})
	f.Add([]byte("WBTL1\x00"))
	f.Add([]byte("not a store at all"))
	// Flipped CRC byte in the final block footer.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	// Flipped byte inside a block payload (CRC now mismatches).
	mid := append([]byte(nil), valid...)
	mid[len(mid)/2] ^= 0x10
	f.Add(mid)
	// Torn tail: the file ends mid-frame.
	f.Add(valid[:len(valid)-7])
	f.Add(valid[:len(valid)/3])
	// Bad varint: 10 continuation bytes where the meta length belongs.
	bad := append([]byte("WBTL1\x00"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	f.Add(bad)
	// Forged frame length pointing far past the payload.
	forged := append([]byte(nil), valid...)
	for i := 0; i+8 < len(forged); i++ {
		if string(forged[i:i+4]) == blockMagic {
			forged[i+4], forged[i+5], forged[i+6], forged[i+7] = 0xff, 0xff, 0xff, 0x00
			break
		}
	}
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wtl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// No sidecar exists, so Open exercises the truncation-scan path
		// and OpenStrict the hard-error path. Under each, Each, EachRecord
		// and the walk under a query's mask must reach the same verdict,
		// totals and index entries: a mask chooses what is decoded, never
		// what is checked.
		var meta Meta
		col := []int{seriesQueueColumn, seriesChargeColumn, seriesPERColumn, seriesCollisionsColumn}[len(data)%4]
		for _, open := range []func(string) (*Reader, error){Open, OpenStrict} {
			r, err := open(path)
			if err != nil {
				continue
			}
			meta = r.Meta()
			first := meta.FirstWearer // shard stores start past wearer 0
			var full []Record
			fullErr := r.Each(func(rec Record) error {
				if rec.Wearer != first+len(full) {
					t.Fatalf("reader emitted wearer %d at position %d (range starts at %d)", rec.Wearer, len(full), first)
				}
				rec.Nodes, rec.Series = slices.Clone(rec.Nodes), nil
				full = append(full, rec)
				if len(full) > len(data) {
					t.Fatalf("decoded %d records from %d bytes — over-read", len(full), len(data))
				}
				return nil
			})
			if r.Records() != len(full) {
				t.Fatalf("Records() = %d after %d emitted", r.Records(), len(full))
			}
			r.Close()

			rr, err := open(path)
			if err != nil {
				t.Fatal(err)
			}
			var recs []Record
			recsErr := rr.EachRecord(func(rec Record) error {
				if rec.Series != nil {
					t.Fatalf("EachRecord handed wearer %d with %d samples", rec.Wearer, len(rec.Series))
				}
				rec.Nodes = slices.Clone(rec.Nodes)
				recs = append(recs, rec)
				return nil
			})
			rr.Close()
			if !sameBits(reflect.ValueOf(recs), reflect.ValueOf(full)) {
				t.Fatalf("EachRecord yielded %d records unlike Each's %d with Series nil", len(recs), len(full))
			}

			rq, err := open(path)
			if err != nil {
				t.Fatal(err)
			}
			queryErr := walk(rq, mask{points: 1<<seriesNodeColumn | 1<<col})
			rq.Close()

			for _, c := range []struct {
				name string
				r    *Reader
				err  error
			}{{"EachRecord", rr, recsErr}, {"query mask", rq, queryErr}} {
				if (c.err == nil) != (fullErr == nil) || c.r.Truncated() != r.Truncated() {
					t.Fatalf("%s: error %v, truncated %t; Each: error %v, truncated %t",
						c.name, c.err, c.r.Truncated(), fullErr, r.Truncated())
				}
				if c.r.Blocks() != r.Blocks() || c.r.Records() != r.Records() ||
					c.r.SeriesPoints() != r.SeriesPoints() || c.r.RawBytes() != r.RawBytes() {
					t.Fatalf("%s totals %d blocks, %d records, %d points, %d raw bytes; Each %d, %d, %d, %d",
						c.name, c.r.Blocks(), c.r.Records(), c.r.SeriesPoints(), c.r.RawBytes(),
						r.Blocks(), r.Records(), r.SeriesPoints(), r.RawBytes())
				}
				if !slices.Equal(c.r.entries, r.entries) {
					t.Fatalf("%s collected index entries %+v; Each %+v", c.name, c.r.entries, r.entries)
				}
			}
		}
		// The Resume scan fallback, continuing the sweep the header
		// describes, truncates to the verifiable prefix; it must do so
		// without panicking and leave a store Resume accepts again
		// (idempotence of repair).
		w, err := resumeStore(t, path, meta)
		if err != nil {
			return
		}
		next := w.NextWearer()
		w.Abort()
		w2, err := resumeStore(t, path, meta)
		if err != nil {
			t.Fatalf("second resume after repair failed: %v", err)
		}
		if w2.NextWearer() != next {
			t.Fatalf("repair not idempotent: next %d then %d", next, w2.NextWearer())
		}
		w2.Abort()
	})
}

// walk drains r under m, building whatever m builds and handing it to no
// one, and returns the walk's verdict.
func walk(r *Reader, m mask) error {
	for {
		if err := r.advance(m); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// refDecode is the reference the single decode (project, then rows) is
// held to: the column-at-a-time decoder it replaced. It builds the
// records the body's header names, with the children attached; pairN
// and pairFirst are readHead's (a series body pairs with its block).
func refDecode[C any](b *nestedBody[C], src []byte, version, pairFirst, pairN int) ([]Record, error) {
	var v bodyView
	pos, err := b.readHead(src, version, pairFirst, pairN, &v)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, len(v.counts))
	for i := range recs {
		recs[i] = Record{Wearer: v.first + i, Cell: -1}
	}
	used, err := refColumns(src[pos:], recs, b.records, version)
	if err != nil {
		return nil, err
	}
	pos += used
	kids := make([]C, v.total)
	if used, err = refColumns(src[pos:], kids, b.children, version); err != nil {
		return nil, err
	}
	if pos += used; pos != len(src) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(src)-pos)
	}
	for i := range recs {
		n := int(v.counts[i])
		*b.childrenOf(&recs[i]), kids = kids[:n:n], kids[n:]
	}
	return recs, nil
}

// refColumns decodes every column of cols present in version, one at a
// time through a columnBuf, setting each value into rows, and returns
// the bytes consumed.
func refColumns[R any](src []byte, rows []R, cols []column[R], version int) (int, error) {
	var buf columnBuf
	buf.fit(len(rows))
	pos := 0
	for ci, c := range cols {
		if c.since > version {
			continue
		}
		used, err := compress.PackedBoolLen(len(rows)), error(nil)
		switch {
		case c.codec != flagCodec:
			used, err = c.codec.decode(src[pos:], buf.vals, buf.floats)
		case pos+used > len(src):
			err = errors.New("truncated flag column")
		default:
			err = compress.UnpackBools(src[pos:pos+used], buf.flags)
		}
		if err != nil {
			return 0, fmt.Errorf("%w: column %d: %v", ErrCorrupt, ci, err)
		}
		pos += used
		for i := range rows {
			v := buf.vals[i]
			switch c.codec {
			case xorCodec:
				v = floatBits(buf.floats[i])
			case flagCodec:
				v = flagBit(buf.flags[i])
			}
			c.set(&rows[i], v)
		}
	}
	return pos, nil
}

// FuzzSeriesBlock drives the series-column codec both ways: bytes are
// first interpreted as sample parameters for an encode→decode round trip
// (every surviving point must come back bit-identical, NaN markers
// included), then thrown raw at the decoder as an adversarial frame body
// — which must reject or terminate cleanly without panicking or
// allocating unboundedly from forged headers. Both ways, the single
// decode under every mask must refuse exactly what the reference decoder
// refuses and keep its values bit for bit.
func FuzzSeriesBlock(f *testing.F) {
	mk := func(n int) []byte {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = seriesRecord(i)
		}
		frame := encodeSeriesFrame(nil, &columnBuf{}, recs)
		payload := frame[8 : len(frame)-4]
		_, body, err := splitKind(payload, FormatV3)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	f.Add(mk(1))
	f.Add(mk(4)) // the four wearers direction 2 pairs raw bodies with
	f.Add(mk(8))
	f.Add(mk(8)[:20])
	for _, n := range []int{4, 8} {
		corrupt := mk(n)
		corrupt[len(corrupt)/2] ^= 0x10
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data parameterizes a small block; the round trip
		// must be exact.
		recs := make([]Record, 1+len(data)%4)
		for i := range recs {
			recs[i].Wearer = 5 + i
			for j, b := range data {
				if j%len(recs) != i || j > 200 {
					continue
				}
				p := SeriesPoint{
					Node:       int(b % 7),
					TimeMS:     int64(j) * 250,
					Charge:     float64(b) / 255,
					QueueDepth: int(b>>3) - 10,
				}
				if b%5 == 0 {
					p.LinkPER, p.CollisionRate = math.NaN(), math.NaN()
				} else {
					p.LinkPER = float64(b%11) / 20
					p.CollisionRate = float64(b%13) / 40
				}
				recs[i].Series = append(recs[i].Series, p)
			}
		}
		frame := encodeSeriesFrame(nil, &columnBuf{}, recs)
		payload := frame[8 : len(frame)-4]
		_, body, err := splitKind(payload, FormatV3)
		if err != nil {
			t.Fatal(err)
		}
		back, err := seriesProjections(t, body, recs[0].Wearer, len(recs))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		for i := range recs {
			if !samePoints(back[i].Series, recs[i].Series) {
				t.Fatalf("record %d: round trip mutated series", i)
			}
		}

		// Direction 2: data is a raw adversarial body. Any outcome but a
		// panic or an over-read is acceptable; on (unlikely) success the
		// attached points must be bounded by what the bytes could hold.
		if got, err := seriesProjections(t, data, 0, 4); err == nil {
			pts := 0
			for i := range got {
				pts += len(got[i].Series)
			}
			if 6*pts > len(data) {
				t.Fatalf("decoded %d points from %d bytes — over-read", pts, len(data))
			}
		}
	})
}

// seriesProjections decodes body as the series frame of the n records
// from wearer first, under every mask a walk puts on series frames — the
// time column alone (EachRecord, Resume and the merge), the node, time
// and metric columns of each query metric, and every column with the
// samples attached (Each, and the merge's re-encoded pairs) — reusing
// one view as readers do. Each must refuse body exactly when refDecode
// does, and otherwise keep refDecode's values bit for bit. It returns
// the records with the samples the single decode attached, and its error.
func seriesProjections(t *testing.T, body []byte, first, n int) ([]Record, error) {
	t.Helper()
	fresh := func() []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i].Wearer = first + i
		}
		return recs
	}
	want, err := refDecode(&seriesFrame, body, FormatV3, first, n)
	var pts []SeriesPoint
	for i := range want {
		pts = append(pts, want[i].Series...)
	}
	var v bodyView
	keeps := []uint64{1 << seriesTimeColumn}
	for _, col := range []int{seriesQueueColumn, seriesChargeColumn, seriesPERColumn, seriesCollisionsColumn} {
		keeps = append(keeps, 1<<seriesNodeColumn|1<<seriesTimeColumn|1<<col)
	}
	for _, keep := range append(keeps, allColumns) {
		v.children.keep = keep
		perr := seriesFrame.project(body, FormatV3, first, n, &v)
		if (err == nil) != (perr == nil) {
			t.Fatalf("keep %#x: reference decode error %v, single decode error %v", keep, err, perr)
		}
		if err == nil {
			checkSeriesProjection(t, &v, want, pts)
		}
	}
	if err != nil {
		return nil, err
	}
	got := seriesFrame.rows(&v, fresh(), FormatV3)
	for i := range got {
		if !sameBits(reflect.ValueOf(got[i].Series), reflect.ValueOf(want[i].Series)) {
			t.Fatalf("record %d: single decode built %+v, reference decode %+v", i, got[i].Series, want[i].Series)
		}
	}
	return got, nil
}

// checkSeriesProjection compares what a series decode kept in v — the
// child counts and every column it keeps — with the points a reference
// decode attached to recs, pts being those laid end to end.
func checkSeriesProjection(t *testing.T, v *bodyView, recs []Record, pts []SeriesPoint) {
	t.Helper()
	for i := range recs {
		if int(v.counts[i]) != len(recs[i].Series) {
			t.Fatalf("record %d: single decode %d points, reference %d", i, v.counts[i], len(recs[i].Series))
		}
	}
	for c := range seriesFrame.children {
		if v.children.keep&(1<<c) == 0 {
			continue
		}
		kept := v.children.ints[c]
		if seriesFrame.children[c].codec == xorCodec {
			kept = make([]int64, len(v.children.floats[c]))
			for k, f := range v.children.floats[c] {
				kept[k] = floatBits(f)
			}
		}
		if len(kept) != len(pts) {
			t.Fatalf("column %d: single decode %d values, reference %d points", c, len(kept), len(pts))
		}
		for k := range pts {
			if want := seriesFrame.children[c].get(&pts[k]); kept[k] != want {
				t.Fatalf("column %d, point %d: single decode %#x, reference %#x", c, k, kept[k], want)
			}
		}
	}
}

// sameBits is reflect.DeepEqual with floats compared by their IEEE-754
// bits, so NaN payloads and signed zeros must survive a round trip too.
// Nil and empty slices compare equal.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// fuzzRecords interprets data as the column values of a small record
// block holding only the fields format version can store: raw 64-bit
// words, so every float bit pattern (NaN payloads, infinities, signed
// zeros, subnormals) and every integer extreme reaches the codec.
func fuzzRecords(data []byte, version int) []Record {
	pos := 0
	word := func() uint64 {
		var v uint64
		for k := 0; k < 8 && len(data) > 0; k++ {
			v = v<<8 | uint64(data[pos%len(data)])
			pos++
		}
		return v
	}
	recs := make([]Record, 1+len(data)%4)
	for i := range recs {
		recs[i] = Record{Wearer: 3 + i, Events: word(), HubRxBits: int64(word()),
			HubUtilization: math.Float64frombits(word()), Cell: -1}
		if version >= FormatV1 {
			recs[i].Cell, recs[i].ForeignLoadPPM = int(word()), int64(word())
		}
		if version >= FormatV2 {
			recs[i].EqForeignLoadPPM, recs[i].FeedbackIters = int64(word()), int(word())
		}
		for j := word() % 5; j > 0; j-- {
			recs[i].Nodes = append(recs[i].Nodes, NodeRecord{
				PacketsGenerated: int64(word()),
				PacketsDelivered: int64(word()),
				PacketsDropped:   int64(word()),
				Transmissions:    int64(word()),
				BitsDelivered:    int64(word()),
				ProjectedLife:    math.Float64frombits(word()),
				LatencyP50:       math.Float64frombits(word()),
				LatencyP99:       math.Float64frombits(word()),
				Perpetual:        word()%2 == 1,
				Died:             word()%3 == 1,
			})
		}
	}
	return recs
}

// blockBody encodes recs as a record block and strips the framing and
// kind selector, leaving the body the pair step projects.
func blockBody(tb testing.TB, recs []Record, version int) []byte {
	frame := encodeBlock(nil, &columnBuf{}, recs, version)
	_, body, err := splitKind(frame[8:len(frame)-4], version)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzRecordBlock drives the record-block codec both ways at every format
// version: bytes are first interpreted as column values for an
// encode→decode round trip (every field must come back bit-identical,
// float bits included), then thrown raw at the decoder as an adversarial
// block body — which must reject or terminate cleanly without panicking
// or allocating from a forged header. Both ways, the single decode under
// every mask must refuse exactly what the reference decoder refuses and
// keep its values bit for bit.
func FuzzRecordBlock(f *testing.F) {
	for v := FormatV0; v <= FormatV3; v++ {
		f.Add(blockBody(f, fuzzRecords([]byte{byte(v), 0x80, 0x7f, 0xff}, v), v))
	}
	recs := make([]Record, 8)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	valid := blockBody(f, recs, FormatV2)
	f.Add(valid)
	f.Add(valid[:20])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Node counts whose sum wraps around int64 to the header's total,
	// followed by all-zero columns: each count must be bounded on its
	// own, not only through the sum.
	wrap := compress.AppendUvarint(nil, 0)
	wrap = compress.AppendUvarint(wrap, 3)
	wrap = compress.AppendUvarint(wrap, 2)
	wrap = compress.AppendDeltaInts(wrap, []int64{math.MaxInt64, math.MaxInt64, 4})
	f.Add(append(wrap, make([]byte, 3*7+2*8+2)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		for v := FormatV0; v <= FormatV3; v++ {
			// Direction 1: data parameterizes a small block; the round
			// trip must be exact.
			recs := fuzzRecords(data, v)
			back, err := recordProjections(t, blockBody(t, recs, v), v)
			if err != nil {
				t.Fatalf("v%d: round trip rejected: %v", v, err)
			}
			if !sameBits(reflect.ValueOf(back), reflect.ValueOf(recs)) {
				t.Fatalf("v%d: round trip mutated records:\n got %+v\nwant %+v", v, back, recs)
			}

			// Direction 2: data is a raw adversarial body. Any outcome
			// but a panic or an over-read is acceptable; on success every
			// record and node must have cost at least one byte per
			// varint column.
			if got, err := recordProjections(t, data, v); err == nil {
				nodes := 0
				for i := range got {
					nodes += len(got[i].Nodes)
				}
				if 4*len(got)+8*nodes > len(data) {
					t.Fatalf("v%d: decoded %d records, %d nodes from %d bytes — over-read",
						v, len(got), nodes, len(data))
				}
			}
		}
	})
}

// recordProjections decodes body as a record block of format version
// under every mask a walk puts on record frames — the cell column alone
// (a query) and every column with rows built (Each, EachRecord, the
// merge) — reusing one view as readers do. Each must refuse body exactly
// when refDecode does, and otherwise keep refDecode's wearers, node
// counts and values bit for bit. It returns the records the single
// decode built, and its error.
func recordProjections(t *testing.T, body []byte, version int) ([]Record, error) {
	t.Helper()
	want, err := refDecode(&recordBlock, body, version, 0, -1)
	var v bodyView
	for _, m := range []mask{{records: 1 << recordCellColumn}, recordColumns} {
		v.records.keep, v.children.keep = m.records, m.nodes
		perr := recordBlock.project(body, version, 0, -1, &v)
		if (err == nil) != (perr == nil) {
			t.Fatalf("v%d mask %+v: reference decode error %v, single decode error %v", version, m, err, perr)
		}
		if err != nil {
			continue
		}
		if v.first != want[0].Wearer || len(v.counts) != len(want) {
			t.Fatalf("v%d: single decode wearers [%d,+%d), reference [%d,+%d)",
				version, v.first, len(v.counts), want[0].Wearer, len(want))
		}
		for i := range want {
			if int(v.counts[i]) != len(want[i].Nodes) {
				t.Fatalf("v%d record %d: single decode %d nodes, reference %d", version, i, v.counts[i], len(want[i].Nodes))
			}
			if version >= FormatV1 && int(v.records.ints[recordCellColumn][i]) != want[i].Cell {
				t.Fatalf("v%d record %d: single decode cell %d, reference %d",
					version, i, v.records.ints[recordCellColumn][i], want[i].Cell)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	got := recordBlock.rows(&v, nil, version)
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("v%d: single decode built %+v, reference decode %+v", version, got, want)
	}
	return got, nil
}

// FuzzResumeCheckpoint throws corrupted, truncated and adversarial
// sidecar bytes at Resume while the data file stays intact. The
// contract: never panic, never wedge the store — an unusable sidecar
// falls back to the CRC scan (recovering every committed record), and
// whatever Resume lands on is self-consistent: the records it feeds its
// sink are exactly wearers [FirstWearer, NextWearer) in order, the same
// records a fresh Reader yields from the repaired store, and a second
// Resume is a fixed point.
func FuzzResumeCheckpoint(f *testing.F) {
	data := storeBytes(f, CurrentFormat)
	meta := fuzzMeta(CurrentFormat)
	// A matching valid sidecar for the corpus: recreate the store in a
	// known location and read what the writer checkpointed.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.wtl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		f.Fatal(err)
	}
	w, err := resumeStore(f, path, meta)
	if err != nil {
		f.Fatal(err)
	}
	w.Abort()
	valid, err := os.ReadFile(CheckpointPath(path))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not json"))
	f.Add([]byte("{}"))
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"offset":0,"blocks":0,"next_wearer":0,"seed_check":0}`))
	f.Add([]byte(`{"offset":-1,"blocks":-1,"next_wearer":-1,"seed_check":-1}`))
	f.Add([]byte(`{"offset":9999999,"blocks":3,"next_wearer":24,"seed_check":1}`))
	// Seed-check-valid but offset-forged variants, handed to the fuzzer
	// on a plate (a random mutation cannot re-tie seed_check to the
	// fleet seed): without the sidecar self-CRC these would be trusted
	// and truncate the store mid-block.
	f.Add([]byte(fmt.Sprintf(`{"offset":30,"blocks":0,"next_wearer":0,"seed_check":%d}`,
		desim.DeriveSeed(42, 0))))
	f.Add([]byte(fmt.Sprintf(`{"offset":500,"blocks":1,"next_wearer":8,"seed_check":%d}`,
		desim.DeriveSeed(42, 16))))

	f.Fuzz(func(t *testing.T, sidecar []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wtl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(CheckpointPath(path), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		var fed []Record
		w, err := Resume(path, meta, func(rec Record) error {
			rec.Nodes, rec.Series = slices.Clone(rec.Nodes), slices.Clone(rec.Series)
			fed = append(fed, rec)
			return nil
		})
		if err != nil {
			// The data file is intact, so Resume may only fail if a
			// trusted sidecar truncated into garbage — which the
			// consistency guards exist to prevent.
			t.Fatalf("resume of an intact store failed: %v", err)
		}
		next := w.NextWearer()
		w.Abort()
		if next < 0 || next > 20 {
			t.Fatalf("resume landed outside the written range: %d", next)
		}
		// Self-consistency: the repaired store replays exactly the records
		// Resume fed its sink (Resume rewrote a valid checkpoint, so the
		// reader trusts the same prefix), and drain pins them to wearers
		// [0, next) in order.
		r, err := Open(path)
		if err != nil {
			t.Fatalf("open after repair: %v", err)
		}
		replayed := drain(t, r)
		r.Close()
		if len(replayed) != next || len(fed) != next {
			t.Fatalf("Resume fed %d records and the repaired store replays %d, checkpoint says %d",
				len(fed), len(replayed), next)
		}
		if !sameBits(reflect.ValueOf(fed), reflect.ValueOf(replayed)) {
			t.Fatal("Resume fed its sink different records than the repaired store replays")
		}
		// Idempotence: resuming again changes nothing.
		w2, err := resumeStore(t, path, meta)
		if err != nil {
			t.Fatalf("second resume failed: %v", err)
		}
		if w2.NextWearer() != next {
			t.Fatalf("repair not idempotent: %d then %d", next, w2.NextWearer())
		}
		w2.Abort()
	})
}

// TestResumeCloseRoundTrip pins the index entries Resume collects while
// it walks the committed frames to the ones the writer produced: on an
// intact, complete v3 store, Resume then Close must reproduce the file
// byte for byte, trailing index frame included — whether the walk
// trusts the checkpoint sidecar or, with the sidecar removed, scans up
// to the index frame and stops there.
func TestResumeCloseRoundTrip(t *testing.T) {
	const n, blockSize = 37, 8 // a short final block rides along
	shard := seriesMeta(n+20, blockSize)
	shard.FirstWearer = 20
	for _, tc := range []struct {
		name string
		meta Meta
		rec  func(int) Record
	}{
		{"series off", testMeta(n, blockSize), testRecord},
		{"series on", seriesMeta(n, blockSize), seriesRecord},
		{"series shard", shard, seriesRecord},
	} {
		for _, scan := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/scan=%t", tc.name, scan), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.wtl")
				w, err := Create(path, tc.meta)
				if err != nil {
					t.Fatal(err)
				}
				first, end := tc.meta.Range()
				for i := first; i < end; i++ {
					if err := w.Consume(tc.rec(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if scan {
					if err := os.Remove(CheckpointPath(path)); err != nil {
						t.Fatal(err)
					}
				}
				rw, err := resumeStore(t, path, tc.meta)
				if err != nil {
					t.Fatal(err)
				}
				if rw.NextWearer() != end || rw.Blocks() != w.Blocks() || rw.Offset() != w.Offset() {
					t.Fatalf("resumed at wearer %d, %d blocks, offset %d; want %d, %d, %d",
						rw.NextWearer(), rw.Blocks(), rw.Offset(), end, w.Blocks(), w.Offset())
				}
				if err := rw.Close(); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("Resume+Close rewrote the store (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// TestResumeRefusesDamageUnderCheckpoint flips the CRC of a committed
// frame that a valid checkpoint sidecar covers. The checkpoint promised
// those bytes, so Resume must fail with ErrCorrupt — and fail before it
// touches anything: no truncation of the data file, no rewrite of the
// sidecar.
func TestResumeRefusesDamageUnderCheckpoint(t *testing.T) {
	const n, blockSize = 24, 8
	v2 := testMeta(n, blockSize)
	v2.Version = FormatV2
	for _, tc := range []struct {
		name string
		meta Meta
		rec  func(int) Record
	}{
		{"v2", v2, testRecord},
		{"v3 series off", testMeta(n, blockSize), testRecord},
		{"v3 series", seriesMeta(n, blockSize), seriesRecord},
	} {
		path := filepath.Join(t.TempDir(), "run.wtl")
		w, err := Create(path, tc.meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := w.Consume(tc.rec(i)); err != nil {
				t.Fatal(err)
			}
		}
		w.Abort() // keep the store checkpoint-complete with no index frame
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, r)
		r.Close()
		// The last CRC byte of the middle block's final frame (its series
		// frame in a series store) and, in a series store, of its record
		// frame too.
		crcs := []int64{r.entries[2].recOffset - 1}
		if tc.meta.Series() {
			crcs = append(crcs, r.entries[1].serOffset-1)
		}
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sidecar, err := os.ReadFile(CheckpointPath(path))
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range crcs {
			t.Run(fmt.Sprintf("%s/crc@%d", tc.name, at), func(t *testing.T) {
				data := bytes.Clone(clean)
				data[at] ^= 0x01
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(CheckpointPath(path), sidecar, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := resumeStore(t, path, tc.meta); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Resume over a damaged checkpointed frame: %v, want ErrCorrupt", err)
				}
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
					t.Errorf("data file changed by a failed Resume (%d vs %d bytes, err %v)", len(got), len(data), err)
				}
				if got, err := os.ReadFile(CheckpointPath(path)); err != nil || !bytes.Equal(got, sidecar) {
					t.Errorf("sidecar changed by a failed Resume: %s (err %v)", got, err)
				}
			})
		}
	}
}

// FuzzMergeShards is the merge's differential: for a random population,
// block size, format version, series on or off, up to three shards cut
// anywhere (on the grid or off it) and shards laid out by older writers,
// MergeShards must reproduce the single-writer store byte for byte,
// trailing index and checkpoint sidecar included. Then one frame of one
// shard has a body byte flipped and its CRC recomputed, so only the
// decoders can see the damage: the merge must fail with ErrCorrupt
// exactly when a Reader draining that shard fails — the splice accepts
// nothing the re-encode path refuses — and a failed merge must leave no
// dst or sidecar behind.
func FuzzMergeShards(f *testing.F) {
	// Seeds: the merge tests' 37-wearer, block-8 layouts (off the grid;
	// on it, with a damaged frame; a legacy shard, damaged), the CI
	// smoke's 80 wearers cut at 27 and 54 (damaged), a damaged v0 store
	// and a single-shard v2 one.
	f.Add(uint8(36), uint8(7), uint8(13), uint8(25), uint8(7), uint8(0), uint16(0), uint8(0))
	f.Add(uint8(36), uint8(7), uint8(16), uint8(32), uint8(7), uint8(3), uint16(41), uint8(0x10))
	f.Add(uint8(36), uint8(7), uint8(13), uint8(25), uint8(15), uint8(4), uint16(9), uint8(0x01))
	f.Add(uint8(79), uint8(7), uint8(27), uint8(54), uint8(7), uint8(5), uint16(300), uint8(0x80))
	f.Add(uint8(20), uint8(3), uint8(5), uint8(5), uint8(0), uint8(1), uint16(2), uint8(0xff))
	f.Add(uint8(20), uint8(3), uint8(0), uint8(0), uint8(2), uint8(0), uint16(0), uint8(0))

	f.Fuzz(func(t *testing.T, pop, block, cut1, cut2, mode, frameSel uint8, byteSel uint16, flip uint8) {
		n, bs := 1+int(pop)%80, 1+int(block)%16
		version, series, legacy := int(mode)%4, mode&4 != 0, mode&8 != 0
		if series {
			version = FormatV3
		}
		meta := fuzzMeta(version)
		meta.Wearers, meta.BlockSize = n, bs
		if series {
			meta.SeriesCadenceSeconds = 0.5
		}
		mk := func(i int) Record {
			rec := testRecord(i)
			if series {
				rec = seriesRecord(i)
			}
			if version < FormatV1 {
				rec.Cell, rec.ForeignLoadPPM = -1, 0
			}
			if version < FormatV2 {
				rec.EqForeignLoadPPM, rec.FeedbackIters = 0, 0
			}
			return rec
		}
		full := filepath.Join(t.TempDir(), "full.wtl")
		w, err := Create(full, meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := w.Consume(mk(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		cuts := []int{0, int(cut1) % (n + 1), int(cut2) % (n + 1), n}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		var paths []string
		for k := 0; k+1 < len(cuts); k++ {
			paths = append(paths, writeShardStore(t, t.TempDir(), meta, cuts[k], cuts[k+1], mk, legacy && k > 0))
		}
		dst := filepath.Join(t.TempDir(), "merged.wtl")
		if _, _, err := MergeShards(dst, paths, nil); err != nil {
			t.Fatalf("merge of shards cut at %v: %v", cuts, err)
		}
		sameStore(t, dst, full)
		if flip == 0 {
			return
		}

		// Damage one committed frame body of one shard, keep its CRC and
		// its sidecar valid: the damage sits inside the checkpointed
		// prefix, where the Reader must refuse it rather than truncate.
		k := int(frameSel) % len(paths)
		raw, err := os.ReadFile(paths[k])
		if err != nil {
			t.Fatal(err)
		}
		_, committed, _, err := Committed(paths[k])
		if err != nil {
			t.Fatal(err)
		}
		hf, err := os.Open(paths[k])
		if err != nil {
			t.Fatal(err)
		}
		_, pos, err := readHeaderFile(hf)
		hf.Close()
		if err != nil {
			t.Fatal(err)
		}
		var frames []int64
		for ; pos < committed; pos += int64(frameOverhead) + int64(binary.LittleEndian.Uint32(raw[pos+4:])) {
			frames = append(frames, pos)
		}
		at := frames[int(frameSel)/len(paths)%len(frames)]
		plen := int64(binary.LittleEndian.Uint32(raw[at+4:]))
		payload := raw[at+8 : at+8+plen]
		payload[int(byteSel)%len(payload)] ^= flip
		binary.LittleEndian.PutUint32(raw[at+8+plen:], crc32.ChecksumIEEE(payload))
		bad := filepath.Join(t.TempDir(), "bad.wtl")
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := os.ReadFile(CheckpointPath(paths[k]))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(CheckpointPath(bad), ck, 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := Open(bad)
		if err != nil {
			t.Fatal(err)
		}
		readErr := r.Each(func(Record) error { return nil })
		r.Close()
		paths[k] = bad
		dst = filepath.Join(t.TempDir(), "merged.wtl")
		_, _, mergeErr := MergeShards(dst, paths, nil)
		if (readErr != nil) != errors.Is(mergeErr, ErrCorrupt) {
			t.Fatalf("flipped %#x in frame at %d of shard %d: reader error %v, merge error %v",
				flip, at, k, readErr, mergeErr)
		}
		if mergeErr != nil {
			for _, p := range []string{dst, CheckpointPath(dst)} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Fatalf("failed merge left %s behind (stat err = %v)", filepath.Base(p), err)
				}
			}
		}
	})
}
