// Package engine is a crypto root that imports math/rand directly and,
// through jitter, transitively (insecure-rand, twice).
//
//pytfhe:cryptoroot
package engine

import (
	"math/rand"

	"plants/jitter"
)

type Ciphertext struct{ B float64 }

type Engine struct{}

//pytfhe:bootstraps
func (e *Engine) Binary(kind uint8, dst, a, b *Ciphertext) error {
	dst.B = a.B + b.B + float64(kind) + jitter.Jitter() + rand.Float64()
	return nil
}
