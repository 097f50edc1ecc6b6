package nn

import (
	"slices"
	"testing"
)

// TestLayerCosts pins the exact output shape and cost of every layer kind
// the zoo builds, and the shapes each kind refuses: the partitioner and
// the figures read nothing else from a layer.
func TestLayerCosts(t *testing.T) {
	tests := []struct {
		name   string
		l      Layer
		in     []int
		out    []int // nil: the layer refuses the input
		macs   int64
		params int64
	}{
		{"dense flattens", NewDense(8, 4), []int{2, 4}, []int{4}, 32, 36},
		{"dense size mismatch", NewDense(11, 4), []int{10}, nil, 0, 0},
		{"conv2d same stride 2", NewConv2D(3, 3, 2, 8, 2, true), []int{49, 10, 2}, []int{25, 5, 8}, 18000, 152},
		{"conv2d same stride 2 10x4", NewConv2D(10, 4, 1, 64, 2, true), []int{49, 10, 1}, []int{24, 5, 64}, 307200, 2624},
		{"conv2d valid", NewConv2D(3, 3, 1, 1, 1, false), []int{5, 5, 1}, []int{3, 3, 1}, 81, 10},
		{"conv2d valid 3x2", NewConv2D(3, 2, 1, 1, 1, false), []int{5, 5, 1}, []int{3, 4, 1}, 72, 7},
		{"conv2d 1x1", NewConv2D(1, 1, 1, 1, 1, true), []int{4, 4, 1}, []int{4, 4, 1}, 16, 2},
		{"conv2d channel mismatch", NewConv2D(3, 3, 2, 8, 2, true), []int{49, 10, 3}, nil, 0, 0},
		{"conv2d empty output", NewConv2D(3, 3, 1, 1, 1, false), []int{2, 5, 1}, nil, 0, 0},
		{"depthwise same", NewDepthwiseConv2D(3, 3, 2, 1, true), []int{6, 6, 2}, []int{6, 6, 2}, 648, 20},
		{"depthwise valid stride 2", NewDepthwiseConv2D(3, 3, 4, 2, false), []int{9, 9, 4}, []int{4, 4, 4}, 576, 40},
		{"depthwise same 3x2", NewDepthwiseConv2D(3, 2, 4, 1, true), []int{9, 9, 4}, []int{9, 8, 4}, 1728, 28},
		{"depthwise channel mismatch", NewDepthwiseConv2D(3, 3, 2, 1, true), []int{6, 6, 3}, nil, 0, 0},
		{"conv1d valid", NewConv1D(2, 1, 1, 1, false), []int{4, 1}, []int{3, 1}, 6, 3},
		{"conv1d same stride 2", NewConv1D(7, 1, 16, 2, true), []int{256, 1}, []int{128, 16}, 14336, 128},
		{"conv1d rank mismatch", NewConv1D(2, 1, 1, 1, false), []int{4, 1, 1}, nil, 0, 0},
		{"global avgpool", GlobalAvgPool{}, []int{4, 4, 3}, []int{3}, 0, 0},
		{"global avgpool rank mismatch", GlobalAvgPool{}, []int{16}, nil, 0, 0},
		{"relu", ReLU{}, []int{3, 4}, []int{3, 4}, 0, 0},
		{"softmax", Softmax{}, []int{12}, []int{12}, 0, 0},
		{"flatten", Flatten{}, []int{32, 48}, []int{1536}, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := tt.l.OutShape(tt.in)
			p, perr := tt.l.Profile(tt.in)
			if tt.out == nil {
				if err == nil || perr == nil {
					t.Fatalf("%s on %v: OutShape err %v, Profile err %v, want both to refuse", tt.l.Name(), tt.in, err, perr)
				}
				return
			}
			if err != nil || perr != nil {
				t.Fatalf("%s on %v: OutShape err %v, Profile err %v", tt.l.Name(), tt.in, err, perr)
			}
			if !slices.Equal(out, tt.out) {
				t.Errorf("out shape %v, want %v", out, tt.out)
			}
			elems := int64(1)
			for _, d := range tt.out {
				elems *= int64(d)
			}
			if p != (Profile{MACs: tt.macs, Params: tt.params, OutElems: elems}) {
				t.Errorf("profile %+v, want MACs %d, params %d, out elems %d", p, tt.macs, tt.params, elems)
			}
		})
	}
}

func TestDenseForwardKnown(t *testing.T) {
	p, _ := NewDense(2, 2).Profile([]int{2})
	if p.MACs != 4 || p.Params != 6 || p.OutElems != 2 {
		t.Errorf("profile %+v", p)
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

func TestSequentialShapeValidation(t *testing.T) {
	if _, err := NewSequential("bad", []int{10}, NewDense(11, 4)); err == nil {
		t.Error("shape mismatch at build should fail")
	}
	if _, err := NewSequential("bad chain", []int{8}, NewDense(8, 4), ReLU{}, NewDense(5, 2)); err == nil {
		t.Error("shape mismatch between layers should fail")
	}
	m, err := NewSequential("ok", []int{8}, NewDense(8, 4), ReLU{}, NewDense(4, 2), Softmax{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumLayers() != 4 {
		t.Errorf("layers = %d", m.NumLayers())
	}
	if !slices.Equal(m.ShapeAt(m.NumLayers()), []int{2}) {
		t.Errorf("out shape %v", m.ShapeAt(m.NumLayers()))
	}
	if m.TotalMACs() != 8*4+4*2 || m.TotalParams() != 8*4+4+4*2+2 || m.InElems() != 8 {
		t.Errorf("totals: %d MACs, %d params, %d input elems", m.TotalMACs(), m.TotalParams(), m.InElems())
	}
	if m.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestZooProfiles(t *testing.T) {
	models, err := Zoo()
	if err != nil {
		t.Fatal(err)
	}
	// Exact costs; each is within 3× of its TinyML class's operating
	// point (DS-CNN-S ≈ 2.7 M MACs, a 1-D CNN beat classifier ≈ 0.9 M,
	// MobileNet-0.25 ≈ 6 M).
	want := []struct {
		name         string
		macs, params int64
		out          []int
	}{
		{"KWS DS-CNN", 2_550_528, 22_604, []int{12}},
		{"ECG 1D-CNN", 424_256, 106_069, []int{5}},
		{"Vision MobileNet-tiny", 6_057_472, 66_922, []int{10}},
	}
	if len(models) != len(want) {
		t.Fatalf("zoo size %d, want %d", len(models), len(want))
	}
	for i, w := range want {
		m := models[i]
		if m.Name != w.name {
			t.Errorf("model %d is %q, want %q", i, m.Name, w.name)
		}
		if m.TotalMACs() != w.macs || m.TotalParams() != w.params {
			t.Errorf("%s: %d MACs, %d params, want %d, %d", m.Name, m.TotalMACs(), m.TotalParams(), w.macs, w.params)
		}
		if out := m.ShapeAt(m.NumLayers()); !slices.Equal(out, w.out) {
			t.Errorf("%s: output shape %v, want %v", m.Name, out, w.out)
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
