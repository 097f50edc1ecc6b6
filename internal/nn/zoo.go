package nn

// Reference model zoo: the three workload classes the paper's wearable-AI
// narrative names — voice (keyword spotting on AI pins and pendants),
// biopotential (ECG beat classification on patches), and first-person
// vision (smart-glasses scene classification). Topologies follow the
// standard TinyML designs (DS-CNN, 1-D CNN, MobileNet-style). A model is
// its layer shapes: the partitioner and the figures consume only the
// per-layer profiles, so no layer carries weights.

// KWSNet returns a DS-CNN-style keyword spotter over a 49×10 MFCC-like
// feature map: one standard conv followed by four depthwise-separable
// blocks and a softmax over 12 keywords (≈ 2.7 M MACs, ≈ 23 k params —
// the "DS-CNN-S" operating point).
func KWSNet() (*Sequential, error) {
	ds := func(ch int) []Layer {
		return []Layer{
			NewDepthwiseConv2D(3, 3, ch, 1, true), ReLU{},
			NewConv2D(1, 1, ch, ch, 1, true), ReLU{},
		}
	}
	layers := []Layer{
		NewConv2D(10, 4, 1, 64, 2, true), ReLU{},
	}
	for i := 0; i < 4; i++ {
		layers = append(layers, ds(64)...)
	}
	layers = append(layers,
		GlobalAvgPool{},
		NewDense(64, 12),
		Softmax{},
	)
	return NewSequential("KWS DS-CNN", []int{49, 10, 1}, layers...)
}

// ECGNet returns a 1-D CNN beat classifier over 256-sample single-lead
// windows: three conv1d/pool stages and a 5-class softmax (normal + 4
// arrhythmia classes, the AAMI grouping; ≈ 0.42 M MACs).
func ECGNet() (*Sequential, error) {
	layers := []Layer{
		NewConv1D(7, 1, 16, 2, true), ReLU{},
		NewConv1D(5, 16, 32, 2, true), ReLU{},
		NewConv1D(3, 32, 48, 2, true), ReLU{},
		Flatten{},
		NewDense(32*48, 64), ReLU{},
		NewDense(64, 5),
		Softmax{},
	}
	return NewSequential("ECG 1D-CNN", []int{256, 1}, layers...)
}

// VisionNet returns a MobileNet-style tiny scene classifier over 96×96
// grayscale frames: stem conv then six depthwise-separable stages with
// stride-2 downsampling, global pooling and a 10-class head
// (≈ 6 M MACs — a MobileNet-0.25 / visual-wake-words operating point).
func VisionNet() (*Sequential, error) {
	sep := func(cin, cout, stride int) []Layer {
		return []Layer{
			NewDepthwiseConv2D(3, 3, cin, stride, true), ReLU{},
			NewConv2D(1, 1, cin, cout, 1, true), ReLU{},
		}
	}
	layers := []Layer{
		NewConv2D(3, 3, 1, 16, 2, true), ReLU{}, // 48×48×16
	}
	layers = append(layers, sep(16, 32, 2)...)   // 24×24×32
	layers = append(layers, sep(32, 64, 2)...)   // 12×12×64
	layers = append(layers, sep(64, 128, 1)...)  // 12×12×128
	layers = append(layers, sep(128, 128, 1)...) // 12×12×128
	layers = append(layers, sep(128, 256, 2)...) // 6×6×256
	layers = append(layers,
		GlobalAvgPool{},
		NewDense(256, 10),
		Softmax{},
	)
	return NewSequential("Vision MobileNet-tiny", []int{96, 96, 1}, layers...)
}

// Zoo returns all reference models.
func Zoo() ([]*Sequential, error) {
	kws, err := KWSNet()
	if err != nil {
		return nil, err
	}
	ecg, err := ECGNet()
	if err != nil {
		return nil, err
	}
	vis, err := VisionNet()
	if err != nil {
		return nil, err
	}
	return []*Sequential{kws, ecg, vis}, nil
}
