package nn

import "fmt"

// Profile is the static cost of one layer for a given input shape — the
// currency of the split-computing partitioner.
type Profile struct {
	// MACs is the multiply-accumulate count of one forward pass.
	MACs int64
	// Params is the weight count (transmitted once, stored on-device).
	Params int64
	// OutElems is the activation element count at the layer output — the
	// data volume a network split at this point must communicate.
	OutElems int64
}

// Layer is one feed-forward stage.
type Layer interface {
	// Name identifies the layer in profiles and tables.
	Name() string
	// OutShape returns the output shape for an input shape.
	OutShape(in []int) ([]int, error)
	// Profile returns the layer cost for an input shape.
	Profile(in []int) (Profile, error)
}

// --- Dense -------------------------------------------------------------------

// Dense is a fully connected layer y = Wx + b.
type Dense struct {
	In, Out int
	label   string
}

// NewDense returns a fully connected layer.
func NewDense(in, out int) *Dense {
	return &Dense{In: in, Out: out, label: fmt.Sprintf("dense %d→%d", in, out)}
}

// Name identifies the layer.
func (d *Dense) Name() string { return d.label }

// OutShape validates the flat input size.
func (d *Dense) OutShape(in []int) ([]int, error) {
	n := 1
	for _, v := range in {
		n *= v
	}
	if n != d.In {
		return nil, fmt.Errorf("nn: dense expects %d inputs, got shape %v", d.In, in)
	}
	return []int{d.Out}, nil
}

// Profile counts In×Out MACs.
func (d *Dense) Profile(in []int) (Profile, error) {
	if _, err := d.OutShape(in); err != nil {
		return Profile{}, err
	}
	return Profile{
		MACs:     int64(d.In) * int64(d.Out),
		Params:   int64(d.In)*int64(d.Out) + int64(d.Out),
		OutElems: int64(d.Out),
	}, nil
}

// --- Conv2D -------------------------------------------------------------------

// Conv2D is a standard 2-D convolution over [H,W,C] inputs with "same" or
// "valid" padding.
type Conv2D struct {
	KH, KW, CIn, COut int
	Stride            int
	SamePad           bool
	label             string
}

// NewConv2D returns a convolution.
func NewConv2D(kh, kw, cin, cout, stride int, samePad bool) *Conv2D {
	return &Conv2D{
		KH: kh, KW: kw, CIn: cin, COut: cout, Stride: stride, SamePad: samePad,
		label: fmt.Sprintf("conv %dx%dx%d→%d s%d", kh, kw, cin, cout, stride),
	}
}

// Name identifies the layer.
func (c *Conv2D) Name() string { return c.label }

// pads returns top/left padding.
func (c *Conv2D) pads() (int, int) {
	if !c.SamePad {
		return 0, 0
	}
	return (c.KH - 1) / 2, (c.KW - 1) / 2
}

// OutShape computes the output spatial dims.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[2] != c.CIn {
		return nil, fmt.Errorf("nn: conv expects [H,W,%d], got %v", c.CIn, in)
	}
	ph, pw := c.pads()
	oh := (in[0]+2*ph-c.KH)/c.Stride + 1
	ow := (in[1]+2*pw-c.KW)/c.Stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: conv output empty for input %v", in)
	}
	return []int{oh, ow, c.COut}, nil
}

// Profile counts OH·OW·COut·KH·KW·CIn MACs.
func (c *Conv2D) Profile(in []int) (Profile, error) {
	os, err := c.OutShape(in)
	if err != nil {
		return Profile{}, err
	}
	macs := int64(os[0]) * int64(os[1]) * int64(c.COut) * int64(c.KH) * int64(c.KW) * int64(c.CIn)
	return Profile{
		MACs:     macs,
		Params:   int64(c.COut)*int64(c.KH)*int64(c.KW)*int64(c.CIn) + int64(c.COut),
		OutElems: int64(os[0]) * int64(os[1]) * int64(os[2]),
	}, nil
}

// --- DepthwiseConv2D -----------------------------------------------------------

// DepthwiseConv2D convolves each channel independently (the MobileNet /
// DS-CNN building block).
type DepthwiseConv2D struct {
	KH, KW, C int
	Stride    int
	SamePad   bool
	label     string
}

// NewDepthwiseConv2D returns a depthwise convolution.
func NewDepthwiseConv2D(kh, kw, ch, stride int, samePad bool) *DepthwiseConv2D {
	return &DepthwiseConv2D{
		KH: kh, KW: kw, C: ch, Stride: stride, SamePad: samePad,
		label: fmt.Sprintf("dwconv %dx%d c%d s%d", kh, kw, ch, stride),
	}
}

// Name identifies the layer.
func (d *DepthwiseConv2D) Name() string { return d.label }

func (d *DepthwiseConv2D) pads() (int, int) {
	if !d.SamePad {
		return 0, 0
	}
	return (d.KH - 1) / 2, (d.KW - 1) / 2
}

// OutShape computes output dims.
func (d *DepthwiseConv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[2] != d.C {
		return nil, fmt.Errorf("nn: dwconv expects [H,W,%d], got %v", d.C, in)
	}
	ph, pw := d.pads()
	oh := (in[0]+2*ph-d.KH)/d.Stride + 1
	ow := (in[1]+2*pw-d.KW)/d.Stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: dwconv output empty for input %v", in)
	}
	return []int{oh, ow, d.C}, nil
}

// Profile counts OH·OW·C·KH·KW MACs.
func (d *DepthwiseConv2D) Profile(in []int) (Profile, error) {
	os, err := d.OutShape(in)
	if err != nil {
		return Profile{}, err
	}
	macs := int64(os[0]) * int64(os[1]) * int64(d.C) * int64(d.KH) * int64(d.KW)
	return Profile{
		MACs:     macs,
		Params:   int64(d.C)*int64(d.KH)*int64(d.KW) + int64(d.C),
		OutElems: int64(os[0]) * int64(os[1]) * int64(os[2]),
	}, nil
}

// --- Conv1D -------------------------------------------------------------------

// Conv1D convolves [T,C] sequences (biopotential models).
type Conv1D struct {
	K, CIn, COut int
	Stride       int
	SamePad      bool
	label        string
}

// NewConv1D returns a 1-D convolution.
func NewConv1D(k, cin, cout, stride int, samePad bool) *Conv1D {
	return &Conv1D{
		K: k, CIn: cin, COut: cout, Stride: stride, SamePad: samePad,
		label: fmt.Sprintf("conv1d %dx%d→%d s%d", k, cin, cout, stride),
	}
}

// Name identifies the layer.
func (c *Conv1D) Name() string { return c.label }

func (c *Conv1D) pad() int {
	if !c.SamePad {
		return 0
	}
	return (c.K - 1) / 2
}

// OutShape computes the output length.
func (c *Conv1D) OutShape(in []int) ([]int, error) {
	if len(in) != 2 || in[1] != c.CIn {
		return nil, fmt.Errorf("nn: conv1d expects [T,%d], got %v", c.CIn, in)
	}
	p := c.pad()
	ot := (in[0]+2*p-c.K)/c.Stride + 1
	if ot <= 0 {
		return nil, fmt.Errorf("nn: conv1d output empty for input %v", in)
	}
	return []int{ot, c.COut}, nil
}

// Profile counts OT·COut·K·CIn MACs.
func (c *Conv1D) Profile(in []int) (Profile, error) {
	os, err := c.OutShape(in)
	if err != nil {
		return Profile{}, err
	}
	macs := int64(os[0]) * int64(c.COut) * int64(c.K) * int64(c.CIn)
	return Profile{
		MACs:     macs,
		Params:   int64(c.COut)*int64(c.K)*int64(c.CIn) + int64(c.COut),
		OutElems: int64(os[0]) * int64(os[1]),
	}, nil
}

// --- Pooling and pointwise ------------------------------------------------------

// GlobalAvgPool averages each channel over all spatial positions.
type GlobalAvgPool struct{}

// Name identifies the layer.
func (GlobalAvgPool) Name() string { return "global-avgpool" }

// OutShape returns [C].
func (GlobalAvgPool) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: gap expects [H,W,C], got %v", in)
	}
	return []int{in[2]}, nil
}

// Profile: adds only.
func (g GlobalAvgPool) Profile(in []int) (Profile, error) {
	os, err := g.OutShape(in)
	if err != nil {
		return Profile{}, err
	}
	return Profile{OutElems: int64(os[0])}, nil
}

// ReLU is the rectifier activation.
type ReLU struct{}

// Name identifies the layer.
func (ReLU) Name() string { return "relu" }

// OutShape is identity.
func (ReLU) OutShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }

// Profile: no MACs.
func (ReLU) Profile(in []int) (Profile, error) {
	n := int64(1)
	for _, d := range in {
		n *= int64(d)
	}
	return Profile{OutElems: n}, nil
}

// Softmax normalizes a flat vector to a probability distribution.
type Softmax struct{}

// Name identifies the layer.
func (Softmax) Name() string { return "softmax" }

// OutShape is identity.
func (Softmax) OutShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }

// Profile: exp/normalize only.
func (Softmax) Profile(in []int) (Profile, error) {
	n := int64(1)
	for _, d := range in {
		n *= int64(d)
	}
	return Profile{OutElems: n}, nil
}

// Flatten reshapes any input to a vector.
type Flatten struct{}

// Name identifies the layer.
func (Flatten) Name() string { return "flatten" }

// OutShape returns the flat element count.
func (Flatten) OutShape(in []int) ([]int, error) {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}, nil
}

// Profile: free.
func (Flatten) Profile(in []int) (Profile, error) {
	n := int64(1)
	for _, d := range in {
		n *= int64(d)
	}
	return Profile{OutElems: n}, nil
}
