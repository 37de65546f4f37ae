package models

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"pytfhe/internal/chiseltorch"
)

// TestWeightsPinned pins the float64 bits of every model's weights. The
// weights are fixtures that every compiled circuit, pinned netlist hash and
// benchmark binary is built from, so the stream they are drawn from must
// not move when the scheme's random generator does.
func TestWeightsPinned(t *testing.T) {
	h := sha256.New()
	put := func(vs []float64) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(len(vs)))
		h.Write(w[:])
		for _, v := range vs {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
	}
	for _, s := range []MNISTSpec{MNISTS(), MNISTM(), MNISTL(), MNISTS().Scaled(10)} {
		w := s.GenWeights()
		put(w.ConvW)
		put(w.ConvB)
		put(w.LinW)
		put(w.LinB)
	}
	for _, a := range []AttentionSpec{AttentionS(), AttentionL(), AttentionS().Scaled(4, 8)} {
		sa := a.ToChiselTorch(nil).Net.(*chiseltorch.SelfAttention)
		put(sa.Wq)
		put(sa.Wk)
		put(sa.Wv)
	}
	const want = "952f096e823553f4fae80becb84c39591b2695e62d376d982ca2d7f1e51271ce"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("weights hash to %s, pinned %s", got, want)
	}
}
