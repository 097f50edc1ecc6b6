package nn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4)
	if x.Elems() != 24 {
		t.Fatalf("elems = %d", x.Elems())
	}
	x.Set3(1, 2, 3, 5)
	if x.At3(1, 2, 3) != 5 {
		t.Error("At3/Set3 mismatch")
	}
	c := x.Clone()
	c.Data[0] = 9
	if x.Data[0] == 9 {
		t.Error("Clone shares data")
	}
	r, err := x.Reshape(24)
	if err != nil || r.Shape[0] != 24 {
		t.Errorf("reshape failed: %v", err)
	}
	if _, err := x.Reshape(7); err == nil {
		t.Error("bad reshape should fail")
	}
	if _, err := FromSlice([]float32{1, 2}, 3); err == nil {
		t.Error("FromSlice size mismatch should fail")
	}
}

func TestArgMaxAndMaxAbs(t *testing.T) {
	x, _ := FromSlice([]float32{1, -5, 3, 3}, 4)
	if x.ArgMax() != 2 {
		t.Errorf("argmax = %d, want 2 (first of ties)", x.ArgMax())
	}
	if x.MaxAbs() != 5 {
		t.Errorf("maxabs = %v, want 5", x.MaxAbs())
	}
	empty := &Tensor{}
	if empty.ArgMax() != -1 {
		t.Error("empty argmax should be -1")
	}
}

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2)
	layerWeights[d] = &weights{W: []float32{1, 2, 3, 4}, B: []float32{0.5, -0.5}}
	x, _ := FromSlice([]float32{1, 1}, 2)
	y, err := d.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 3.5 || y.Data[1] != 6.5 {
		t.Errorf("dense output %v, want [3.5 6.5]", y.Data)
	}
	p, _ := d.Profile([]int{2})
	if p.MACs != 4 || p.Params != 6 || p.OutElems != 2 {
		t.Errorf("profile %+v", p)
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1×1 identity kernel must pass the input through.
	c := NewConv2D(1, 1, 1, 1, 1, true)
	layerWeights[c] = &weights{W: []float32{1}, B: []float32{0}}
	x := NewTensor(4, 4, 1)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y, err := c.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv changed data at %d", i)
		}
	}
}

func TestConv2DSumKernel(t *testing.T) {
	// A 3×3 all-ones valid conv over an all-ones input sums to 9.
	r := newRNG(1)
	c := heLayer(NewConv2D(3, 3, 1, 1, 1, false), r)
	w := weightsOf(c)
	for i := range w.W {
		w.W[i] = 1
	}
	w.B[0] = 0
	x := NewTensor(5, 5, 1)
	for i := range x.Data {
		x.Data[i] = 1
	}
	y, err := c.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !SameShape(y.Shape, []int{3, 3, 1}) {
		t.Fatalf("out shape %v", y.Shape)
	}
	for _, v := range y.Data {
		if v != 9 {
			t.Fatalf("sum conv = %v, want 9", v)
		}
	}
}

func TestConv2DStrideAndPadShapes(t *testing.T) {
	c := NewConv2D(3, 3, 2, 8, 2, true)
	os, err := c.OutShape([]int{49, 10, 2})
	if err != nil {
		t.Fatal(err)
	}
	if os[0] != 25 || os[1] != 5 || os[2] != 8 {
		t.Errorf("same-pad stride-2 out %v, want [25 5 8]", os)
	}
	if _, err := c.OutShape([]int{49, 10, 3}); err == nil {
		t.Error("channel mismatch should fail")
	}
}

func TestDepthwiseIndependence(t *testing.T) {
	// Depthwise conv must not mix channels: zero one channel's kernel and
	// its output is exactly its bias.
	r := newRNG(3)
	d := heLayer(NewDepthwiseConv2D(3, 3, 2, 1, true), r)
	w := weightsOf(d)
	for k := 0; k < 9; k++ {
		w.W[0*9+k] = 0 // channel 0 kernel zeroed
	}
	w.B[0] = 0.25
	x := NewTensor(6, 6, 2)
	for i := range x.Data {
		x.Data[i] = float32(i%7) - 3
	}
	y, err := d.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 36; i++ {
		if y.Data[i*2] != 0.25 {
			t.Fatalf("channel mixing detected at %d: %v", i, y.Data[i*2])
		}
	}
}

func TestConv1DKnown(t *testing.T) {
	// Moving-sum kernel of width 2, stride 1, valid: y[t] = x[t]+x[t+1].
	c := NewConv1D(2, 1, 1, 1, false)
	layerWeights[c] = &weights{W: []float32{1, 1}, B: []float32{0}}
	x, _ := FromSlice([]float32{1, 2, 3, 4}, 4, 1)
	y, err := c.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{3, 5, 7}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("conv1d[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestMaxPoolAndGAP(t *testing.T) {
	p := &MaxPool2D{Size: 2}
	x := NewTensor(4, 4, 1)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y, err := p.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{5, 7, 13, 15}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("maxpool[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
	g := GlobalAvgPool{}
	z, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(z.Data[0]-7.5)) > 1e-6 {
		t.Errorf("GAP = %v, want 7.5", z.Data[0])
	}
}

func TestActivations(t *testing.T) {
	x, _ := FromSlice([]float32{-1, 0, 2}, 3)
	y, _ := ReLU{}.Forward(x)
	if y.Data[0] != 0 || y.Data[2] != 2 {
		t.Errorf("relu = %v", y.Data)
	}
	if x.Data[0] != -1 {
		t.Error("ReLU mutated its input")
	}
	s, _ := Softmax{}.Forward(x)
	var sum float32
	for _, v := range s.Data {
		if v < 0 {
			t.Error("negative softmax output")
		}
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-6 {
		t.Errorf("softmax sum = %v", sum)
	}
}

func TestSoftmaxStability(t *testing.T) {
	x, _ := FromSlice([]float32{1000, 1001, 999}, 3)
	y, _ := Softmax{}.Forward(x)
	for _, v := range y.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax overflowed on large logits")
		}
	}
	if y.ArgMax() != 1 {
		t.Error("softmax argmax wrong")
	}
}

func TestSequentialShapeValidation(t *testing.T) {
	r := newRNG(5)
	if _, err := NewSequential("bad", []int{10}, NewDense(11, 4)); err == nil {
		t.Error("shape mismatch at build should fail")
	}
	m, err := NewSequential("ok", []int{8}, heLayer(NewDense(8, 4), r), ReLU{}, heLayer(NewDense(4, 2), r), Softmax{})
	if err != nil {
		t.Fatal(err)
	}
	if !SameShape(m.OutShape(), []int{2}) {
		t.Errorf("out shape %v", m.OutShape())
	}
	if m.NumLayers() != 4 {
		t.Errorf("layers = %d", m.NumLayers())
	}
	x := NewTensor(8)
	y, err := m.Forward(x)
	if err != nil || y.Elems() != 2 {
		t.Fatalf("forward: %v", err)
	}
	if m.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestForwardRangeEquivalence(t *testing.T) {
	// Splitting the forward pass at any point must give the same output as
	// running it whole — the invariant split computing relies on.
	m, err := KWSNet()
	if err != nil {
		t.Fatal(err)
	}
	withWeights(m, 7)
	x := NewTensor(49, 10, 1)
	r := newRNG(99)
	for i := range x.Data {
		x.Data[i] = float32(r.norm())
	}
	whole, err := m.Forward(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, m.NumLayers() / 2, m.NumLayers() - 1} {
		head, err := m.ForwardRange(x.Clone(), 0, cut)
		if err != nil {
			t.Fatalf("cut %d head: %v", cut, err)
		}
		tail, err := m.ForwardRange(head, cut, m.NumLayers())
		if err != nil {
			t.Fatalf("cut %d tail: %v", cut, err)
		}
		for i := range whole.Data {
			if math.Abs(float64(whole.Data[i]-tail.Data[i])) > 1e-5 {
				t.Fatalf("cut %d diverged at %d: %v vs %v", cut, i, whole.Data[i], tail.Data[i])
			}
		}
	}
	if _, err := m.ForwardRange(x, 3, 1); err == nil {
		t.Error("inverted range should fail")
	}
}

func TestZooProfiles(t *testing.T) {
	models, err := Zoo()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range models {
		withWeights(m, int64(1+i))
	}
	if len(models) != 3 {
		t.Fatalf("zoo size %d", len(models))
	}
	// Operating points (MACs) should match the TinyML classes within 3×.
	wantMACs := map[string]int64{
		"KWS DS-CNN":            2_700_000,
		"ECG 1D-CNN":            900_000,
		"Vision MobileNet-tiny": 6_000_000,
	}
	for _, m := range models {
		got := m.TotalMACs()
		want := wantMACs[m.Name]
		if want == 0 {
			t.Fatalf("unexpected model %q", m.Name)
		}
		if got < want/3 || got > want*3 {
			t.Errorf("%s: %d MACs, want ≈ %d", m.Name, got, want)
		}
		// Forward pass must run and produce a distribution.
		x := NewTensor(m.InShape...)
		for i := range x.Data {
			x.Data[i] = float32(i%13)/13 - 0.5
		}
		y, err := m.Forward(x)
		if err != nil {
			t.Fatalf("%s forward: %v", m.Name, err)
		}
		var sum float32
		for _, v := range y.Data {
			sum += v
		}
		if math.Abs(float64(sum-1)) > 1e-4 {
			t.Errorf("%s: output not a distribution (sum %v)", m.Name, sum)
		}
	}
}

func TestZooDeterministic(t *testing.T) {
	// Every build of the zoo is the same cost model: equal layer shapes
	// and profiles, so the figures and the partitioner cannot drift
	// between calls.
	a, err := Zoo()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Zoo()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Summary() != b[i].Summary() {
			t.Errorf("%s: two builds differ:\n%s\n%s", a[i].Name, a[i].Summary(), b[i].Summary())
		}
	}
}

// synthClusters builds a K-class Gaussian-cluster classification task.
func synthClusters(seed int64, n, dim, k int) (xs [][]float32, ys []int) {
	r := newRNG(seed)
	centers := make([][]float32, k)
	for c := range centers {
		centers[c] = make([]float32, dim)
		for d := range centers[c] {
			centers[c][d] = float32(r.norm()) * 2
		}
	}
	for i := 0; i < n; i++ {
		c := i % k
		x := make([]float32, dim)
		for d := range x {
			x[d] = centers[c][d] + float32(r.norm())*0.5
		}
		xs = append(xs, x)
		ys = append(ys, c)
	}
	return
}

func TestMLPTrainsToHighAccuracy(t *testing.T) {
	xs, ys := synthClusters(11, 600, 8, 4)
	train, trainY := xs[:400], ys[:400]
	test, testY := xs[400:], ys[400:]
	m, err := NewMLP(5, 8, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Accuracy(test, testY)
	loss, err := m.Fit(train, trainY, 30, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	after := m.Accuracy(test, testY)
	if after < 0.9 {
		t.Errorf("test accuracy %.2f after training (was %.2f, loss %.3f), want ≥ 0.9",
			after, before, loss)
	}
	if after <= before {
		t.Error("training did not improve accuracy")
	}
}

func TestMLPToSequentialAgrees(t *testing.T) {
	xs, ys := synthClusters(13, 200, 6, 3)
	m, _ := NewMLP(7, 6, 12, 3)
	if _, err := m.Fit(xs, ys, 10, 0.05); err != nil {
		t.Fatal(err)
	}
	seq, err := m.ToSequential("mlp")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x, _ := FromSlice(append([]float32(nil), xs[i]...), 6)
		y, err := seq.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		if y.ArgMax() != m.Classify(xs[i]) {
			t.Fatalf("sequential and MLP disagree on sample %d", i)
		}
	}
}

func TestMLPErrors(t *testing.T) {
	if _, err := NewMLP(1, 5); err == nil {
		t.Error("single-size MLP should fail")
	}
	m, _ := NewMLP(1, 2, 2)
	if _, err := m.TrainEpoch(nil, nil, 0.1); err == nil {
		t.Error("empty training set should fail")
	}
	if _, err := m.TrainEpoch([][]float32{{1, 2}}, []int{5}, 0.1); err == nil {
		t.Error("out-of-range label should fail")
	}
}

func TestQuantTensorRoundTripProperty(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(float64(raw[i])) || math.IsInf(float64(raw[i]), 0) {
				raw[i] = 0
			}
			// Keep magnitudes sane for a sensor-activation regime.
			raw[i] = float32(math.Mod(float64(raw[i]), 100))
		}
		tns, err := FromSlice(raw, len(raw))
		if err != nil {
			return false
		}
		q := QuantizeTensor(tns)
		deq := q.Dequantize()
		maxAbs := float64(tns.MaxAbs())
		tol := maxAbs/127 + 1e-6
		for i := range raw {
			if math.Abs(float64(deq.Data[i]-raw[i])) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantMLPAccuracyParity(t *testing.T) {
	xs, ys := synthClusters(17, 600, 8, 4)
	train, trainY := xs[:400], ys[:400]
	test, testY := xs[400:], ys[400:]
	m, _ := NewMLP(9, 8, 16, 4)
	if _, err := m.Fit(train, trainY, 30, 0.05); err != nil {
		t.Fatal(err)
	}
	fp := m.Accuracy(test, testY)
	q := QuantizeMLP(m)
	i8 := q.Accuracy(test, testY)
	if fp-i8 > 0.05 {
		t.Errorf("int8 accuracy %.3f vs float %.3f: drop > 5%%", i8, fp)
	}
	// Weight storage should be ~4× smaller than float32.
	floatBytes := 0
	for l := range m.W {
		floatBytes += 4*len(m.W[l]) + 4*len(m.B[l])
	}
	if q.WeightBytes() >= floatBytes/2 {
		t.Errorf("quant weights %dB vs float %dB: want real shrink", q.WeightBytes(), floatBytes)
	}
}

func TestQuantDenseMatchesFloatClosely(t *testing.T) {
	r := newRNG(21)
	d := heLayer(NewDense(32, 8), r)
	qd := QuantizeDense(d)
	x := NewTensor(32)
	for i := range x.Data {
		x.Data[i] = float32(r.norm())
	}
	fy, err := d.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	qy, err := qd.Forward(QuantizeTensor(x))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fy.Data {
		if math.Abs(float64(fy.Data[i]-qy[i])) > 0.25 {
			t.Errorf("quant dense output %d: %v vs %v", i, qy[i], fy.Data[i])
		}
	}
	if _, err := qd.Forward(&QuantTensor{Data: make([]int8, 3), Scale: 1}); err == nil {
		t.Error("wrong quant input size should fail")
	}
}
