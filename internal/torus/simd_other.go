//go:build !amd64

package torus

// Without the amd64 assembly the portable Go kernels are the only path;
// these stubs exist only so the dispatch in half.go and torus.go compiles.
const useAVX2 = false

const noAVX2 = "torus: AVX2 kernel called on a non-amd64 build"

func (t *halfTables) foldIntAVX2(re, im []float64, src []int32)     { panic(noAVX2) }
func (t *halfTables) foldTorusAVX2(re, im []float64, src []Torus32) { panic(noAVX2) }
func (t *halfTables) fftAVX2(re, im []float64)                      { panic(noAVX2) }
func (t *halfTables) ifftAVX2(dre, dim, sre, sim []float64)         { panic(noAVX2) }
func (t *halfTables) untwistAddAVX2(dst []Torus32, re, im []float64) {
	panic(noAVX2)
}
func mulAccAVX2(f, a, b *HalfPoly)                { panic(noAVX2) }
func mulAccPairAVX2(f, a1, b1, a2, b2 *HalfPoly)  { panic(noAVX2) }
func subAVX2(dst, src []Torus32)                  { panic(noAVX2) }
func rotSubAVX2(dst, x, y []Torus32, sign uint32) { panic(noAVX2) }
func switchRowsAVX2(acc, key []Torus32, rows, ends []uint32, members, stride int) {
	panic(noAVX2)
}
func gadgetDigitAVX2(dst []int32, src []Torus32, offset uint32, shift, baseLog uint) {
	panic(noAVX2)
}
