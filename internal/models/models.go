// Package models defines the neural-network workload specifications shared
// by the ChiselTorch frontend and the baseline framework compilers: the
// three MNIST CNNs of the paper (MNIST_S from VIP-Bench plus the larger
// MNIST_M and MNIST_L with two and three convolution kernels), and the two
// self-attention configurations (Attention_S with hidden size 32,
// Attention_L with 64).
//
// Weights are deterministic pseudo-random values: the paper evaluates
// performance, not accuracy, and deterministic weights make every gate
// count and benchmark reproducible. Real trained weights can be plugged
// into the same specs.
package models

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"pytfhe/internal/chiseltorch"
)

// weightStream is the frozen generator of the fixture weights. Block i of
// the stream is SHA-256(SHA-256(seed) ‖ LE64(i)), read as four
// little-endian 8-byte words. It is not the scheme's random generator and
// must never change: every compiled model, pinned netlist hash and
// benchmark binary is built from the weights it yields.
type weightStream struct {
	key   [32]byte
	block uint64
	buf   [32]byte
	off   int
}

func newWeightStream(seed string) *weightStream {
	return &weightStream{key: sha256.Sum256([]byte(seed)), off: 32}
}

// float64 returns a value in [0, 1) from the top 53 bits of the next word.
func (w *weightStream) float64() float64 {
	if w.off == len(w.buf) {
		var in [40]byte
		copy(in[:32], w.key[:])
		binary.LittleEndian.PutUint64(in[32:], w.block)
		w.block++
		w.buf = sha256.Sum256(in[:])
		w.off = 0
	}
	v := binary.LittleEndian.Uint64(w.buf[w.off:])
	w.off += 8
	return float64(v>>11) / (1 << 53)
}

// MNISTSpec describes one MNIST CNN: Conv2d(1, Kernels, 3, 1) -> ReLU ->
// MaxPool2d(3,1) -> Flatten -> Linear(-, 10), the Fig. 4 topology.
type MNISTSpec struct {
	Name    string
	Image   int // input is Image×Image, one channel
	Kernels int // convolution output channels (1, 2, 3 for S, M, L)
	Conv    int // convolution kernel size
	Pool    int // pooling kernel size (stride 1)
	Classes int
}

// MNISTS returns the VIP-Bench MNIST network (one convolution kernel).
func MNISTS() MNISTSpec {
	return MNISTSpec{Name: "MNIST_S", Image: 28, Kernels: 1, Conv: 3, Pool: 3, Classes: 10}
}

// MNISTM returns the paper's two-kernel variant.
func MNISTM() MNISTSpec {
	return MNISTSpec{Name: "MNIST_M", Image: 28, Kernels: 2, Conv: 3, Pool: 3, Classes: 10}
}

// MNISTL returns the paper's three-kernel variant.
func MNISTL() MNISTSpec {
	return MNISTSpec{Name: "MNIST_L", Image: 28, Kernels: 3, Conv: 3, Pool: 3, Classes: 10}
}

// Scaled returns a copy with a reduced image size — used by tests and the
// quick benchmark mode to exercise identical code paths on smaller
// circuits.
func (s MNISTSpec) Scaled(image int) MNISTSpec {
	s.Image = image
	s.Name = s.Name + "_scaled"
	return s
}

// ConvOut returns the convolution output spatial size.
func (s MNISTSpec) ConvOut() int { return s.Image - s.Conv + 1 }

// PoolOut returns the pooled spatial size (stride-1 pooling).
func (s MNISTSpec) PoolOut() int { return s.ConvOut() - s.Pool + 1 }

// FlatSize returns the flattened feature count feeding the classifier
// (576 for MNIST_S at 28×28, matching Fig. 4's Linear(576, 10)).
func (s MNISTSpec) FlatSize() int { return s.Kernels * s.PoolOut() * s.PoolOut() }

// Weights bundles the deterministic parameters of a spec.
type Weights struct {
	ConvW []float64 // [Kernels][1][Conv][Conv]
	ConvB []float64 // [Kernels]
	LinW  []float64 // [Classes][FlatSize]
	LinB  []float64 // [Classes]
}

// GenWeights derives deterministic weights in roughly the magnitude range
// of a trained, normalized network.
func (s MNISTSpec) GenWeights() Weights {
	rng := newWeightStream("pytfhe-weights-" + s.Name)
	gen := func(n int, scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Round((rng.float64()*2-1)*scale*64) / 64 // quantization-friendly
		}
		return v
	}
	return Weights{
		ConvW: gen(s.Kernels*s.Conv*s.Conv, 0.5),
		ConvB: gen(s.Kernels, 0.25),
		LinW:  gen(s.Classes*s.FlatSize(), 0.25),
		LinB:  gen(s.Classes, 0.25),
	}
}

// ToChiselTorch builds the spec as a ChiselTorch model with the given data
// type (nil defaults to Fixed(8,8), the paper's example).
func (s MNISTSpec) ToChiselTorch(dt chiseltorch.DType) chiseltorch.Model {
	w := s.GenWeights()
	return chiseltorch.Model{
		Name:  s.Name,
		DType: dt,
		Net: chiseltorch.Sequential{
			&chiseltorch.Conv2d{
				InC: 1, OutC: s.Kernels, Kernel: s.Conv, Stride: 1,
				Weight: w.ConvW, Bias: w.ConvB,
			},
			chiseltorch.ReLU{},
			chiseltorch.MaxPool2d{Kernel: s.Pool, Stride: 1},
			chiseltorch.Flatten{},
			&chiseltorch.Linear{
				In: s.FlatSize(), Out: s.Classes,
				Weight: w.LinW, Bias: w.LinB,
			},
		},
	}
}

// AttentionSpec describes a single-head self-attention layer.
type AttentionSpec struct {
	Name   string
	Seq    int
	Hidden int
}

// AttentionS returns the paper's Attention_S (hidden dimension 32).
func AttentionS() AttentionSpec { return AttentionSpec{Name: "Attention_S", Seq: 8, Hidden: 32} }

// AttentionL returns the paper's Attention_L (hidden dimension 64).
func AttentionL() AttentionSpec { return AttentionSpec{Name: "Attention_L", Seq: 8, Hidden: 64} }

// Scaled returns a reduced copy for tests.
func (a AttentionSpec) Scaled(seq, hidden int) AttentionSpec {
	a.Seq, a.Hidden = seq, hidden
	a.Name = a.Name + "_scaled"
	return a
}

// ToChiselTorch builds the attention layer as a ChiselTorch model.
func (a AttentionSpec) ToChiselTorch(dt chiseltorch.DType) chiseltorch.Model {
	rng := newWeightStream("pytfhe-attn-" + a.Name)
	gen := func() []float64 {
		v := make([]float64, a.Hidden*a.Hidden)
		for i := range v {
			v[i] = math.Round((rng.float64()*2-1)*32) / 64
		}
		return v
	}
	return chiseltorch.Model{
		Name:  a.Name,
		DType: dt,
		Net: &chiseltorch.SelfAttention{
			Seq: a.Seq, Hidden: a.Hidden,
			Wq: gen(), Wk: gen(), Wv: gen(),
		},
	}
}
