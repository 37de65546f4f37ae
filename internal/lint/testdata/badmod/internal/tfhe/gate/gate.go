// Package gate stands in for the real gate engine: a crypto root that
// imports math/rand directly and through mathutil (insecure-rand), and the
// evaluator every executor drives.
package gate

import (
	"math/rand"

	"badmod/internal/mathutil"
)

// Ciphertext is a fixture LWE sample.
type Ciphertext struct{ B float64 }

// Op names one gate, as gate.Op does.
type Op struct{ Kind uint8 }

// Engine evaluates fixture gates.
type Engine struct{}

// Binary evaluates dst = kind(a, b).
func (e *Engine) Binary(kind uint8, dst, a, b *Ciphertext) error {
	dst.B = a.B + b.B + float64(kind) + mathutil.Jitter() + rand.Float64()
	return nil
}
