package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wiban/internal/sensors"
	"wiban/internal/units"
)

// --- bit I/O ---------------------------------------------------------------

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := &bitWriter{}
	w.writeBits(0b101, 3)
	w.writeBits(0xABCD, 16)
	w.writeBits(1, 1)
	w.writeBits(0x3FFFFFFFF, 34)
	buf := w.bytes()
	r := &bitReader{buf: buf}
	for _, tt := range []struct {
		n    uint
		want uint64
	}{{3, 0b101}, {16, 0xABCD}, {1, 1}, {34, 0x3FFFFFFFF}} {
		got, err := r.readBits(tt.n)
		if err != nil || got != tt.want {
			t.Fatalf("readBits(%d) = %x, %v; want %x", tt.n, got, err, tt.want)
		}
	}
}

func TestBitIOProperty(t *testing.T) {
	f := func(vals []uint32, widths []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		w := &bitWriter{}
		var seq []struct {
			v uint64
			n uint
		}
		for i, v := range vals {
			n := uint(1)
			if i < len(widths) {
				n = uint(widths[i]%32) + 1
			}
			mv := uint64(v) & ((1 << n) - 1)
			seq = append(seq, struct {
				v uint64
				n uint
			}{mv, n})
			w.writeBits(mv, n)
		}
		r := &bitReader{buf: w.bytes()}
		for _, s := range seq {
			got, err := r.readBits(s.n)
			if err != nil || got != s.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// mask returns a value with the low w bits set, for w in 0–64.
func mask(w uint) uint64 {
	if w >= 64 {
		return math.MaxUint64
	}
	return 1<<w - 1
}

// TestBitIOWideWidths covers the widths 33–64 that writeBits and readBits
// accept but TestBitIOProperty never draws. Each width is written after
// a 0–7-bit lead, so it starts at every bit offset within a byte, with
// three values: all ones, only the top bit, and a random uint64 whose
// bits above the width writeBits must ignore.
func TestBitIOWideWidths(t *testing.T) {
	type pair struct {
		v uint64
		n uint
	}
	rng := rand.New(rand.NewSource(64))
	var seq []pair
	w := &bitWriter{}
	total := uint(0)
	for n := uint(33); n <= 64; n++ {
		for lead := uint(0); lead < 8; lead++ {
			for _, v := range []uint64{mask(n), 1 << (n - 1), rng.Uint64()} {
				for _, p := range []pair{{rng.Uint64(), lead}, {v, n}} {
					w.writeBits(p.v, p.n)
					seq = append(seq, pair{p.v & mask(p.n), p.n})
					total += p.n
				}
			}
		}
	}
	buf := w.bytes()
	if want := int(total+7) / 8; len(buf) != want {
		t.Fatalf("buffer holds %d bytes for %d bits, want %d", len(buf), total, want)
	}
	r := &bitReader{buf: buf}
	for i, p := range seq {
		got, err := r.readBits(p.n)
		if err != nil || got != p.v {
			t.Fatalf("step %d: readBits(%d) = %#x, %v; want %#x", i, p.n, got, err, p.v)
		}
	}
	if _, err := r.readBits(8); err == nil {
		t.Error("read past the padded end succeeded")
	}
}

func TestUnaryRoundTrip(t *testing.T) {
	w := &bitWriter{}
	qs := []uint32{0, 1, 7, 31, 32, 33, 100, 1000}
	for _, q := range qs {
		w.writeUnary(q)
	}
	r := &bitReader{buf: w.bytes()}
	for _, q := range qs {
		got, err := r.readUnary()
		if err != nil || got != q {
			t.Fatalf("readUnary = %d, %v; want %d", got, err, q)
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	r := &bitReader{buf: []byte{0xFF}}
	if _, err := r.readBits(9); err == nil {
		t.Error("reading past end should fail")
	}
}

func TestVarintZigzagProperty(t *testing.T) {
	f := func(v int64) bool {
		buf := appendUvarint(nil, zigzag(v))
		u, k := uvarint(buf)
		return k == len(buf) && unzigzag(u) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarintCorrupt(t *testing.T) {
	if _, k := uvarint(nil); k != 0 {
		t.Error("empty uvarint should fail")
	}
	if _, k := uvarint(bytes.Repeat([]byte{0x80}, 11)); k != 0 {
		t.Error("overlong uvarint should fail")
	}
}

// --- Delta varint ----------------------------------------------------------

func TestDeltaVarintRoundTripProperty(t *testing.T) {
	f := func(samples []int16) bool {
		enc := EncodeDeltaVarint(samples)
		dec, err := DecodeDeltaVarint(enc)
		if err != nil || len(dec) != len(samples) {
			return false
		}
		for i := range samples {
			if dec[i] != samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeltaVarintCompressesECG(t *testing.T) {
	// 12-bit quantization matches the ECG patch AFE resolution.
	g := sensors.NewECGSynth(250*units.Hertz, 70, 1)
	raw := sensors.QuantizeBits(g.Samples(2500), 2.0, 12) // 10 s ECG
	enc := EncodeDeltaVarint(raw)
	ratio := Ratio(len(raw)*2, len(enc))
	if ratio < 1.7 {
		t.Errorf("ECG delta-varint ratio = %.2f, want ≥ 1.7", ratio)
	}
}

func TestDeltaVarintCorrupt(t *testing.T) {
	if _, err := DecodeDeltaVarint(nil); err == nil {
		t.Error("nil stream should fail")
	}
	enc := EncodeDeltaVarint([]int16{1, 2, 3})
	if _, err := DecodeDeltaVarint(enc[:len(enc)-1]); err == nil {
		t.Error("truncated stream should fail")
	}
}

// --- Rice ------------------------------------------------------------------

func TestRiceRoundTripProperty(t *testing.T) {
	f := func(vals []int32, kseed uint8) bool {
		k := uint(kseed % 20)
		enc := RiceEncode(vals, k)
		dec, err := RiceDecode(enc)
		if err != nil || len(dec) != len(vals) {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRiceAutoBeatsRawOnECG(t *testing.T) {
	g := sensors.NewECGSynth(250*units.Hertz, 70, 2)
	raw := sensors.QuantizeBits(g.Samples(2500), 2.0, 12)
	deltas := DeltaInt32(raw)
	enc := RiceEncodeAuto(deltas)
	ratio := Ratio(len(raw)*2, len(enc))
	if ratio < 1.9 {
		t.Errorf("ECG Rice ratio = %.2f, want ≥ 1.9", ratio)
	}
	dec, err := RiceDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UndeltaInt16(dec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if back[i] != raw[i] {
			t.Fatal("Rice+delta round trip mismatch")
		}
	}
}

func TestChooseRiceK(t *testing.T) {
	if k := ChooseRiceK(nil); k != 0 {
		t.Errorf("empty ChooseRiceK = %d, want 0", k)
	}
	small := []int32{0, 1, -1, 0, 1}
	large := []int32{10000, -20000, 15000}
	if ChooseRiceK(small) >= ChooseRiceK(large) {
		t.Error("larger values should choose larger k")
	}
}

func TestRiceOutlierEscape(t *testing.T) {
	// 2048 zigzags to 4096 = 2^12, the marker's own length.
	vals := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 2, 2048, 2047}
	enc := RiceEncode(vals, 0) // k=0 forces the escape path
	dec, err := RiceDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatalf("outlier round trip: got %d want %d", dec[i], vals[i])
		}
	}
}

func TestUndeltaOverflow(t *testing.T) {
	if _, err := UndeltaInt16([]int32{32767, 1}); err == nil {
		t.Error("overflowing reconstruction should fail")
	}
}

// --- RLE ---------------------------------------------------------------------

func TestRLERoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		dec, err := RLEDecode(RLEEncode(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRLECompressesRuns(t *testing.T) {
	src := bytes.Repeat([]byte{7}, 10000)
	enc := RLEEncode(src)
	if Ratio(len(src), len(enc)) < 1000 {
		t.Errorf("constant run ratio = %.0f, want ≥ 1000", Ratio(len(src), len(enc)))
	}
}

func TestRLECorrupt(t *testing.T) {
	for _, bad := range [][]byte{nil, {5}, {2, 1}} {
		if _, err := RLEDecode(bad); err == nil {
			t.Errorf("RLEDecode(%v) should fail", bad)
		}
	}
}

// --- Huffman -----------------------------------------------------------------

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		dec, err := HuffmanDecode(HuffmanEncode(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHuffmanSkewedInput(t *testing.T) {
	// 95% zeros should compress well below 8 bits/symbol.
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 50000)
	for i := range src {
		if rng.Float64() > 0.95 {
			src[i] = byte(rng.Intn(8) + 1)
		}
	}
	enc := HuffmanEncode(src)
	if r := Ratio(len(src), len(enc)); r < 3 {
		t.Errorf("skewed Huffman ratio = %.2f, want ≥ 3", r)
	}
	dec, err := HuffmanDecode(enc)
	if err != nil || !bytes.Equal(dec, src) {
		t.Fatal("skewed round trip failed")
	}
}

func TestHuffmanEdgeCases(t *testing.T) {
	for _, src := range [][]byte{{}, {42}, bytes.Repeat([]byte{9}, 1000)} {
		dec, err := HuffmanDecode(HuffmanEncode(src))
		if err != nil || !bytes.Equal(dec, src) {
			t.Errorf("edge case %v failed: %v", src[:min(len(src), 3)], err)
		}
	}
	if _, err := HuffmanDecode([]byte{5}); err == nil {
		t.Error("truncated header should fail")
	}
}

// --- ADPCM --------------------------------------------------------------------

func TestADPCMRatioAndFidelity(t *testing.T) {
	g := sensors.NewAudioSynth(16*units.Kilohertz, 4)
	raw := sensors.Quantize(audioSamples(g, 16000), 1.0)
	enc := ADPCMEncode(raw)
	// 4 bits/sample plus small header → ratio just under 4.
	if r := Ratio(len(raw)*2, len(enc)); r < 3.5 || r > 4.1 {
		t.Errorf("ADPCM ratio = %.2f, want ≈ 4", r)
	}
	dec, err := ADPCMDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(raw) {
		t.Fatalf("length %d, want %d", len(dec), len(raw))
	}
	// SNR of reconstruction should exceed 15 dB on speech-like audio.
	var sig, noise float64
	for i := range raw {
		s := float64(raw[i])
		n := float64(raw[i]) - float64(dec[i])
		sig += s * s
		noise += n * n
	}
	if noise == 0 {
		return
	}
	snr := 10 * math.Log10(sig/noise)
	if snr < 15 {
		t.Errorf("ADPCM SNR = %.1f dB, want ≥ 15 dB", snr)
	}
}

func TestADPCMOddLengthAndEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17} {
		raw := make([]int16, n)
		for i := range raw {
			raw[i] = int16(i * 100)
		}
		dec, err := ADPCMDecode(ADPCMEncode(raw))
		if err != nil || len(dec) != n {
			t.Errorf("n=%d: err=%v len=%d", n, err, len(dec))
		}
	}
}

func TestADPCMCorrupt(t *testing.T) {
	for _, bad := range [][]byte{nil, {1}, {4, 0, 0, 89}} {
		if _, err := ADPCMDecode(bad); err == nil {
			t.Errorf("ADPCMDecode(%v) should fail", bad)
		}
	}
}

// --- Frame codec -----------------------------------------------------------------

func TestFrameCodecRoundTripQuality(t *testing.T) {
	g := sensors.NewVideoSynth(64, 48, 5)
	frame := g.NextFrame()
	for _, q := range []int{30, 60, 90} {
		c, err := NewFrameCodec(64, 48, q)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := c.Encode(frame)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		psnr := PSNR(frame, dec)
		minPSNR := map[int]float64{30: 26, 60: 29, 90: 33}[q]
		if psnr < minPSNR {
			t.Errorf("q=%d: PSNR = %.1f dB, want ≥ %.1f", q, psnr, minPSNR)
		}
	}
}

func TestFrameCodecQualityMonotone(t *testing.T) {
	g := sensors.NewVideoSynth(64, 48, 6)
	frame := g.NextFrame()
	var prevSize int
	var prevPSNR float64
	for _, q := range []int{20, 50, 80} {
		c, _ := NewFrameCodec(64, 48, q)
		enc, _ := c.Encode(frame)
		dec, _ := c.Decode(enc)
		psnr := PSNR(frame, dec)
		if prevSize > 0 {
			if len(enc) < prevSize {
				t.Errorf("q=%d: size %d smaller than lower quality %d", q, len(enc), prevSize)
			}
			if psnr < prevPSNR-0.5 {
				t.Errorf("q=%d: PSNR %.1f below lower quality %.1f", q, psnr, prevPSNR)
			}
		}
		prevSize, prevPSNR = len(enc), psnr
	}
}

func TestFrameCodecCompressionRatio(t *testing.T) {
	// The MJPEG claim that matters for the video-node projection: a
	// realistic frame compresses ≥ 5× at mid quality.
	g := sensors.NewVideoSynth(160, 120, 7)
	frame := g.NextFrame()
	c, _ := NewFrameCodec(160, 120, 50)
	enc, err := c.Encode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if r := Ratio(len(frame), len(enc)); r < 5 {
		t.Errorf("MJPEG ratio at q50 = %.1f, want ≥ 5", r)
	}
}

func TestFrameCodecNonMultipleOf8(t *testing.T) {
	// 30×22 exercises edge replication padding.
	g := sensors.NewVideoSynth(30, 22, 8)
	frame := g.NextFrame()
	c, err := NewFrameCodec(30, 22, 70)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encode(frame)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 30*22 {
		t.Fatalf("decoded size %d, want %d", len(dec), 30*22)
	}
	if PSNR(frame, dec) < 26 {
		t.Errorf("padded frame PSNR = %.1f, want ≥ 26", PSNR(frame, dec))
	}
}

func TestFrameCodecFlatFrame(t *testing.T) {
	frame := bytes.Repeat([]byte{128}, 64*64)
	c, _ := NewFrameCodec(64, 64, 50)
	enc, _ := c.Encode(frame)
	if r := Ratio(len(frame), len(enc)); r < 10 {
		t.Errorf("flat frame ratio = %.1f, want ≥ 10", r)
	}
	dec, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dec {
		if p < 126 || p > 130 {
			t.Fatalf("flat frame pixel %d drifted", p)
		}
	}
}

func TestFrameCodecErrors(t *testing.T) {
	if _, err := NewFrameCodec(0, 10, 50); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewFrameCodec(10, 10, 0); err == nil {
		t.Error("quality 0 should fail")
	}
	if _, err := NewFrameCodec(10, 10, 101); err == nil {
		t.Error("quality 101 should fail")
	}
	c, _ := NewFrameCodec(16, 16, 50)
	if _, err := c.Encode(make([]byte, 10)); err == nil {
		t.Error("wrong frame size should fail")
	}
	if _, err := c.Decode(nil); err == nil {
		t.Error("nil stream should fail")
	}
	other, _ := NewFrameCodec(8, 8, 50)
	g := sensors.NewVideoSynth(16, 16, 1)
	enc, _ := c.Encode(g.NextFrame())
	if _, err := other.Decode(enc); err == nil {
		t.Error("mismatched codec dims should fail")
	}
}

func TestDCTInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b, orig [64]float64
		for i := range b {
			b[i] = rng.Float64()*255 - 128
			orig[i] = b[i]
		}
		fdct8(&b)
		idct8(&b)
		for i := range b {
			if math.Abs(b[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDCTEnergyCompaction(t *testing.T) {
	// A smooth gradient block should concentrate > 90% of energy in the
	// first 10 zigzag coefficients — the property MJPEG exploits.
	var b [64]float64
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			b[y*8+x] = float64(x+y) * 8
		}
	}
	fdct8(&b)
	var total, head float64
	for i := 0; i < 64; i++ {
		e := b[zigzagOrder[i]] * b[zigzagOrder[i]]
		total += e
		if i < 10 {
			head += e
		}
	}
	if head/total < 0.9 {
		t.Errorf("energy compaction = %.2f, want ≥ 0.9", head/total)
	}
}

func TestPSNRBehaviour(t *testing.T) {
	a := []byte{1, 2, 3}
	if !math.IsInf(PSNR(a, a), 1) {
		t.Error("identical frames should have infinite PSNR")
	}
	if PSNR(a, []byte{1, 2}) != 0 {
		t.Error("mismatched lengths should return 0")
	}
	if PSNR(nil, nil) != 0 {
		t.Error("empty frames should return 0")
	}
}

func TestRatioDegenerate(t *testing.T) {
	if Ratio(100, 0) != 0 {
		t.Error("zero compressed size should return 0")
	}
	if Ratio(100, 50) != 2 {
		t.Error("basic ratio wrong")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
