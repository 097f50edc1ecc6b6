// Package nn is the static cost model of the neural networks the paper's
// workloads run: the keyword-spotting, biopotential-classification and
// small-vision networks that a wearable AI system runs either on the leaf
// node (in-sensor analytics), on the on-body hub (the "wearable brain"),
// or split between them.
//
// A model is a chain of layer shapes with per-layer cost profiles
// (multiply-accumulates, parameters, activation sizes) — the quantities
// the split-computing partitioner optimizes. The package computes no
// activations and holds no weights.
package nn

import (
	"fmt"
	"strings"
)

// Sequential is a feed-forward chain of layers with a fixed input shape,
// validated at construction.
type Sequential struct {
	Name     string
	InShape  []int
	layers   []Layer
	shapes   [][]int // shapes[i] is the input shape of layer i; shapes[len] is the output
	profiles []Profile
}

// NewSequential builds and validates a model. It returns an error if any
// layer rejects its input shape.
func NewSequential(name string, inShape []int, layers ...Layer) (*Sequential, error) {
	m := &Sequential{Name: name, InShape: append([]int(nil), inShape...), layers: layers}
	shape := m.InShape
	m.shapes = append(m.shapes, shape)
	for i, l := range layers {
		p, err := l.Profile(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: %s layer %d (%s): %w", name, i, l.Name(), err)
		}
		m.profiles = append(m.profiles, p)
		shape, err = l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("nn: %s layer %d (%s): %w", name, i, l.Name(), err)
		}
		m.shapes = append(m.shapes, shape)
	}
	return m, nil
}

// NumLayers returns the layer count.
func (m *Sequential) NumLayers() int { return len(m.layers) }

// ShapeAt returns the activation shape entering layer i (i = NumLayers
// yields the output shape).
func (m *Sequential) ShapeAt(i int) []int { return m.shapes[i] }

// Profiles returns per-layer cost profiles.
func (m *Sequential) Profiles() []Profile { return m.profiles }

// TotalMACs sums MACs over all layers.
func (m *Sequential) TotalMACs() int64 {
	var t int64
	for _, p := range m.profiles {
		t += p.MACs
	}
	return t
}

// TotalParams sums parameters over all layers.
func (m *Sequential) TotalParams() int64 {
	var t int64
	for _, p := range m.profiles {
		t += p.Params
	}
	return t
}

// InElems returns the input element count.
func (m *Sequential) InElems() int64 {
	n := int64(1)
	for _, d := range m.InShape {
		n *= int64(d)
	}
	return n
}

// Summary renders a per-layer table (name, output shape, MACs, params,
// activation elements).
func (m *Sequential) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: input %v\n", m.Name, m.InShape)
	fmt.Fprintf(&b, "%-3s %-22s %-14s %12s %10s %10s\n", "#", "layer", "out shape", "MACs", "params", "out elems")
	for i, l := range m.layers {
		p := m.profiles[i]
		fmt.Fprintf(&b, "%-3d %-22s %-14v %12d %10d %10d\n",
			i, l.Name(), m.shapes[i+1], p.MACs, p.Params, p.OutElems)
	}
	fmt.Fprintf(&b, "total MACs %d, params %d\n", m.TotalMACs(), m.TotalParams())
	return b.String()
}
