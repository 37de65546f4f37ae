// Package jitter is pulled into the crypto root's path.
package jitter

import "math/rand"

func Jitter() float64 { return rand.Float64() }
