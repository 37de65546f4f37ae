package boot

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

func testCloudKey(t *testing.T, seed string) *CloudKey {
	t.Helper()
	_, ck, err := GenerateKeys(params.Test(), trand.NewSeeded([]byte(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGenerateKeysDeterministicAndHalfOnly: the same seed yields the same
// key byte for byte, and BKHalf is BK itself — the same backing arrays, not
// a converted copy.
func TestGenerateKeysDeterministicAndHalfOnly(t *testing.T) {
	a, b := testCloudKey(t, "boot-keys"), testCloudKey(t, "boot-keys")
	if !bytes.Equal(gobBytes(t, a), gobBytes(t, b)) {
		t.Fatal("two seeded GenerateKeys runs differ")
	}
	half := a.BKHalf()
	if len(half) != len(a.BK) {
		t.Fatalf("BKHalf has %d entries, BK %d", len(half), len(a.BK))
	}
	for i := range half {
		if half[i] != a.BK[i] || &half[i].Rows[0][0].Re[0] != &a.BK[i].Rows[0][0].Re[0] {
			t.Fatalf("BKHalf()[%d] does not alias BK[%d]", i, i)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated key does not validate: %v", err)
	}
}

// TestCloudKeyGobSize pins what the two format changes save. Under this
// seed the Test cloud key gob-encoded to 5,726,573 bytes with the
// full-complex bootstrapping key, which halved when that form was dropped.
// The key-switching key was then 2,184,106 bytes as one sample per row;
// the flat rows without digit 0 encode to 2,038,363 (gob writes a random
// 32-bit word in 5 bytes and a padding word in 1, so the saving in gob is
// smaller than the quarter of the rows dropped).
func TestCloudKeyGobSize(t *testing.T) {
	const parentBytes, perRowKSBytes = 5726573, 2184106
	ck := testCloudKey(t, "boot-gob-size")
	size := len(gobBytes(t, ck))
	ks := len(gobBytes(t, ck.KS))
	if max := parentBytes * 7 / 10; size > max {
		t.Errorf("cloud key is %d bytes, want at most %d (0.7× the parent's %d)", size, max, parentBytes)
	}
	if bk, parentBK := size-ks, parentBytes-perRowKSBytes; bk*100 > parentBK*51 {
		t.Errorf("bootstrapping key is %d bytes, want at most 0.51× the parent's %d", bk, parentBK)
	}
	if max := perRowKSBytes * 94 / 100; ks > max {
		t.Errorf("key-switching key is %d bytes, want at most %d (0.94× the per-row form's %d)", ks, max, perRowKSBytes)
	}
}

// shortKS replaces ck.KS with a copy whose flat rows are words shorter, or
// -words longer, than the key's shape implies.
func shortKS(ck *CloudKey, words int) {
	ks := *ck.KS
	ks.Flat = append([]torus.Torus32(nil), ks.Flat...)
	if words < 0 {
		ks.Flat = append(ks.Flat, make([]torus.Torus32, -words)...)
	} else {
		ks.Flat = ks.Flat[:len(ks.Flat)-words]
	}
	ck.KS = &ks
}

// TestCloudKeyValidate feeds Validate one malformed key per shape rule. Each
// would otherwise index out of range (or dereference nil) inside a worker.
func TestCloudKeyValidate(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(ck *CloudKey)
	}{
		{"nil params", func(ck *CloudKey) { ck.Params = nil }},
		{"inconsistent params", func(ck *CloudKey) { p := *ck.Params; p.PolyDegree = 100; ck.Params = &p }},
		{"short BK", func(ck *CloudKey) { ck.BK = ck.BK[:len(ck.BK)-1] }},
		{"nil BK entry", func(ck *CloudKey) { ck.BK[3] = nil }},
		{"wrong BK geometry", func(ck *CloudKey) { g := *ck.BK[0]; g.Params.Levels++; ck.BK[0] = &g }},
		{"wrong row count", func(ck *CloudKey) { g := *ck.BK[1]; g.Rows = g.Rows[1:]; ck.BK[1] = &g }},
		{"wrong poly count", func(ck *CloudKey) { ck.BK[2].Rows[0] = ck.BK[2].Rows[0][:1] }},
		{"nil poly", func(ck *CloudKey) { ck.BK[2].Rows[1][0] = nil }},
		{"short poly", func(ck *CloudKey) { ck.BK[2].Rows[1][1] = torus.NewHalfPoly(ck.Params.PolyDegree/2 - 1) }},
		{"ragged poly", func(ck *CloudKey) { hp := ck.BK[2].Rows[1][1]; hp.Im = hp.Im[:len(hp.Im)-1] }},
		{"nil KS", func(ck *CloudKey) { ck.KS = nil }},
		{"KS dimensions", func(ck *CloudKey) { ks := *ck.KS; ks.NOut++; ck.KS = &ks }},
		{"KS levels", func(ck *CloudKey) { ks := *ck.KS; ks.Levels++; ck.KS = &ks }},
		// The flat key short by one input coefficient's rows (a plane), one
		// digit position's group, one row (a missing sample) or one word (a
		// sample of the wrong width), and long by one padded row.
		{"KS planes", func(ck *CloudKey) { shortKS(ck, ck.KS.Levels*(1<<ck.KS.BaseLog-1)*ck.KS.Stride()) }},
		{"KS digits", func(ck *CloudKey) { shortKS(ck, (1<<ck.KS.BaseLog-1)*ck.KS.Stride()) }},
		{"KS nil sample", func(ck *CloudKey) { shortKS(ck, ck.KS.Stride()) }},
		{"KS sample dimension", func(ck *CloudKey) { shortKS(ck, 1) }},
		{"KS oversized", func(ck *CloudKey) { shortKS(ck, -ck.KS.Stride()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck := testCloudKey(t, "boot-validate")
			tc.mangle(ck)
			err := ck.Validate()
			if err == nil {
				t.Fatal("malformed key validated")
			}
			if errors.Is(err, ErrOldKeyFormat) {
				t.Fatalf("misreported as the old key format: %v", err)
			}
		})
	}
	if err := (*CloudKey)(nil).Validate(); err == nil {
		t.Fatal("nil key validated")
	}
}

// TestOldFormatKeyFile: key files written before either format change
// gob-decode without complaint, so Validate is what must notice them and
// ask for regeneration. A full-complex bootstrapping key decodes field for
// field (the old FourierSample/FourierPoly had the same field names) and
// shows as N-point polynomials. A key-switching key of one sample per row
// decodes with its Rows dropped, since gob skips fields the new type lacks,
// and shows as a switch key with no flat rows.
func TestOldFormatKeyFile(t *testing.T) {
	type fourierPoly struct{ Re, Im []float64 }
	type fourierSample struct {
		Rows   [][]*fourierPoly
		K      int
		Params tgsw.Params
	}
	type oldSwitchKey struct {
		NIn, NOut, Levels, BaseLog int
		Rows                       [][][]*lwe.Sample
	}
	type fullComplexKey struct {
		Params *params.GateParams
		BK     []*fourierSample
		KS     *lwe.SwitchKey
	}
	type perRowKey struct {
		Params *params.GateParams
		BK     []*tgsw.HalfSample
		KS     *oldSwitchKey
	}
	ck := testCloudKey(t, "boot-old-format")
	var fullComplex []*fourierSample
	for _, g := range ck.BK {
		fs := &fourierSample{K: g.K, Params: g.Params}
		for _, row := range g.Rows {
			var polys []*fourierPoly
			for range row {
				n := ck.Params.PolyDegree
				polys = append(polys, &fourierPoly{Re: make([]float64, n), Im: make([]float64, n)})
			}
			fs.Rows = append(fs.Rows, polys)
		}
		fullComplex = append(fullComplex, fs)
	}
	perRow := &oldSwitchKey{NIn: ck.KS.NIn, NOut: ck.KS.NOut, Levels: ck.KS.Levels, BaseLog: ck.KS.BaseLog}
	for i := 0; i < perRow.NIn; i++ {
		plane := make([][]*lwe.Sample, perRow.Levels)
		for j := range plane {
			for v := 0; v < 1<<perRow.BaseLog; v++ {
				plane[j] = append(plane[j], lwe.NewSample(perRow.NOut))
			}
		}
		perRow.Rows = append(perRow.Rows, plane)
	}
	for _, tc := range []struct {
		name string
		old  any
	}{
		{"full-complex BK", fullComplexKey{ck.Params, fullComplex, ck.KS}},
		{"per-row KS", perRowKey{ck.Params, ck.BK, perRow}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var loaded CloudKey
			if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, tc.old))).Decode(&loaded); err != nil {
				t.Fatalf("old-format key did not decode: %v", err)
			}
			if err := loaded.Validate(); !errors.Is(err, ErrOldKeyFormat) {
				t.Fatalf("Validate = %v, want ErrOldKeyFormat", err)
			}
		})
	}
}
