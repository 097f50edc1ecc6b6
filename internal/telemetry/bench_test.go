package telemetry

// Codec benchmarks: how fast wearer records move through the columnar
// block encoder/decoder, in records/s and encoded MB/s. BENCH_fleet.json
// at the repo root records a baseline next to the fleet-engine numbers —
// the encoder must stay far faster than the simulator (~thousands of
// runs/s) so the telemetry sink never becomes the sweep bottleneck.

import (
	"math"
	"path/filepath"
	"testing"
)

// benchRecords builds one block's worth of realistic records.
func benchRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = testRecord(i)
		// testRecord cycles 0–3 nodes; pad to a realistic 3–6 node mix.
		for len(recs[i].Nodes) < 3 {
			recs[i].Nodes = append(recs[i].Nodes, NodeRecord{
				PacketsGenerated: int64(300 + i%17),
				PacketsDelivered: int64(290 + i%17),
				Transmissions:    int64(310 + i%19),
				BitsDelivered:    int64(290000 + 1024*(i%13)),
				ProjectedLife:    86400 * float64(2+i%9),
				LatencyP50:       0.012,
				LatencyP99:       0.055,
				Perpetual:        i%2 == 0,
			})
		}
	}
	return recs
}

// BenchmarkBlockEncode encodes one block into buffers reused from
// block to block, as Writer.commit does.
func BenchmarkBlockEncode(b *testing.B) {
	recs := benchRecords(DefaultBlockSize)
	var frame []byte
	var buf columnBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = encodeBlock(frame[:0], &buf, recs, CurrentFormat)
	}
	encoded := int64(len(frame))
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(DefaultBlockSize)/(perOp/1e9), "records/s")
	b.ReportMetric(float64(encoded)/(perOp/1e9)/1e6, "MB/s")
}

// BenchmarkBlockDecode decodes one block with its records built, the
// way Each reads it.
func BenchmarkBlockDecode(b *testing.B) {
	recs := benchRecords(DefaultBlockSize)
	frame := encodeBlock(nil, &columnBuf{}, recs, CurrentFormat)
	payload := frame[8 : len(frame)-4] // strip magic+len and CRC framing
	_, body, err := splitKind(payload, CurrentFormat)
	if err != nil {
		b.Fatal(err)
	}
	var v bodyView // reused from block to block, as a Reader reuses it
	v.records.keep, v.children.keep = allColumns, allColumns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := recordBlock.project(body, CurrentFormat, 0, -1, &v); err != nil {
			b.Fatal(err)
		}
		recordBlock.rows(&v, nil, CurrentFormat)
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(DefaultBlockSize)/(perOp/1e9), "records/s")
	b.ReportMetric(float64(len(body))/(perOp/1e9)/1e6, "MB/s")
}

// benchSeriesBlock builds one block of records carrying a realistic
// per-node time series: 4 nodes sampled every second over a 60 s span,
// with the encoder's NaN gap markers sprinkled in.
func benchSeriesBlock(n int) []Record {
	recs := benchRecords(n)
	for i := range recs {
		for tick := int64(1); tick <= 60; tick++ {
			for node := 0; node < 4; node++ {
				p := SeriesPoint{
					Node:       node,
					TimeMS:     tick * 1000,
					Charge:     1 - float64(tick)/7200 - float64(i%9)*0.01,
					QueueDepth: int((tick + int64(node) + int64(i)) % 5),
				}
				if (int64(i)+tick+int64(node))%7 == 0 {
					p.LinkPER, p.CollisionRate = math.NaN(), math.NaN()
				} else {
					p.LinkPER = float64((i+node)%12) / 40
					p.CollisionRate = p.LinkPER / 3
				}
				recs[i].Series = append(recs[i].Series, p)
			}
		}
	}
	return recs
}

// BenchmarkSeriesEncode encodes one block's series frame into buffers
// reused from block to block, as Writer.commit does.
func BenchmarkSeriesEncode(b *testing.B) {
	recs := benchSeriesBlock(DefaultBlockSize)
	points := 0
	for i := range recs {
		points += len(recs[i].Series)
	}
	var frame []byte
	var buf columnBuf
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = encodeSeriesFrame(frame[:0], &buf, recs)
	}
	encoded := int64(len(frame))
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(points)/(perOp/1e9), "points/s")
	b.ReportMetric(float64(encoded)/(perOp/1e9)/1e6, "MB/s")
}

// BenchmarkSeriesDecode decodes one block's series frame with its
// samples attached, the way Each reads it.
func BenchmarkSeriesDecode(b *testing.B) {
	recs := benchSeriesBlock(DefaultBlockSize)
	points := 0
	for i := range recs {
		points += len(recs[i].Series)
	}
	frame := encodeSeriesFrame(nil, &columnBuf{}, recs)
	payload := frame[8 : len(frame)-4]
	_, body, err := splitKind(payload, FormatV3)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]Record, len(recs))
	var v bodyView // reused from frame to frame, as a Reader reuses it
	v.children.keep = allColumns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = Record{Wearer: recs[j].Wearer}
		}
		if err := seriesFrame.project(body, FormatV3, dst[0].Wearer, len(dst), &v); err != nil {
			b.Fatal(err)
		}
		seriesFrame.rows(&v, dst, FormatV3)
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(points)/(perOp/1e9), "points/s")
	b.ReportMetric(float64(len(body))/(perOp/1e9)/1e6, "MB/s")
}

// BenchmarkSeriesQuery measures an index-pruned aggregation over a
// series store — the iobtrace query hot path, including the open,
// checkpoint read and per-block decode.
func BenchmarkSeriesQuery(b *testing.B) {
	path := filepath.Join(b.TempDir(), "query.wtl")
	meta := Meta{FleetSeed: 42, Wearers: 256, SpanSeconds: 60, BlockSize: 32,
		Version: FormatV3, Cells: 5, Feedback: true, SeriesCadenceSeconds: 1}
	w, err := Create(path, meta)
	if err != nil {
		b.Fatal(err)
	}
	block := benchSeriesBlock(32)
	for i := 0; i < 256; i++ {
		rec := block[i%32]
		rec.Wearer = i
		if err := w.Consume(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	q := Query{Metric: "per", FromMS: 10_000, ToMS: 30_000, Cell: -1, Node: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := QueryStore(path, q)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Points == 0 {
			b.Fatal("query matched nothing")
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(1e9/perOp, "queries/s")
}

// BenchmarkWriterConsume measures the full sink path: buffering, block
// encode, file append and checkpoint rename, amortized per record.
func BenchmarkWriterConsume(b *testing.B) {
	recs := benchRecords(DefaultBlockSize)
	w, err := Create(filepath.Join(b.TempDir(), "bench.wtl"), Meta{
		FleetSeed: 1, Wearers: b.N + 1, SpanSeconds: 1,
		Version: CurrentFormat, Cells: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Abort()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := recs[i%DefaultBlockSize]
		rec.Wearer = i
		if err := w.Consume(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(1e9/perOp, "records/s")
}

// BenchmarkMergeShards measures the sharded sweep's serial tail: merging
// two v3 series shards — 2,500 wearers of benchSeriesBlock records (240
// samples each), block 64, cut at wearer 1,250, off the grid — into one
// store, with a sink folding every record. Every pair but the seam's is
// spliced.
func BenchmarkMergeShards(b *testing.B) { benchMergeShards(b, false) }

// BenchmarkMergeShardsLegacy is BenchmarkMergeShards with the second
// shard laid out the way writers cut blocks before the grid rule, at
// FirstWearer+k·BlockSize: each of its pairs is off the merged grid and
// re-encodes.
func BenchmarkMergeShardsLegacy(b *testing.B) { benchMergeShards(b, true) }

func benchMergeShards(b *testing.B, legacy bool) {
	const n, blockSize = 2500, 64
	meta := Meta{FleetSeed: 42, Wearers: n, SpanSeconds: 60, BlockSize: blockSize,
		Version: FormatV3, Cells: 5, Feedback: true, SeriesCadenceSeconds: 1}
	block := benchSeriesBlock(blockSize)
	mk := func(i int) Record {
		rec := block[i%blockSize]
		rec.Wearer = i
		return rec
	}
	paths := []string{
		writeShardStore(b, b.TempDir(), meta, 0, n/2, mk, false),
		writeShardStore(b, b.TempDir(), meta, n/2, n, mk, legacy),
	}
	dst := filepath.Join(b.TempDir(), "merged.wtl")
	nodes := 0
	sink := func(rec Record) error {
		nodes += len(rec.Nodes)
		return nil
	}
	var size int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, size, err = MergeShards(dst, paths, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(n/(perOp/1e9), "records/s")
	b.ReportMetric(float64(size)/(perOp/1e9)/1e6, "MB/s")
}
