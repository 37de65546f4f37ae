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

// TestCloudKeyGobSize pins what dropping the full-complex form saves. The
// parent commit's Test cloud key gob-encoded to 5,726,573 bytes under this
// seed. The bootstrapping key halves; the key-switching key (about 2.2 MB,
// 38 % of the old total at Test parameters, format unchanged) does not, so
// the whole key lands near 0.69×, not at BK's 0.5×.
func TestCloudKeyGobSize(t *testing.T) {
	const parentBytes = 5726573
	ck := testCloudKey(t, "boot-gob-size")
	size := len(gobBytes(t, ck))
	ks := len(gobBytes(t, ck.KS))
	if max := parentBytes * 7 / 10; size > max {
		t.Errorf("cloud key is %d bytes, want at most %d (0.7× the parent's %d)", size, max, parentBytes)
	}
	if bk, parentBK := size-ks, parentBytes-ks; bk*100 > parentBK*51 {
		t.Errorf("bootstrapping key is %d bytes, want at most 0.51× the parent's %d", bk, parentBK)
	}
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
		{"KS planes", func(ck *CloudKey) { ks := *ck.KS; ks.Rows = ks.Rows[1:]; ck.KS = &ks }},
		{"KS levels", func(ck *CloudKey) { ck.KS.Rows[0] = ck.KS.Rows[0][1:] }},
		{"KS digits", func(ck *CloudKey) { ck.KS.Rows[1][0] = ck.KS.Rows[1][0][1:] }},
		{"KS nil sample", func(ck *CloudKey) { ck.KS.Rows[1][1][2] = nil }},
		{"KS sample dimension", func(ck *CloudKey) { ck.KS.Rows[1][1][3] = lwe.NewSample(3) }},
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

// TestOldFormatKeyFile: a key file written before this format change gob-
// decodes without complaint (gob matches fields by name, and the old
// FourierSample/FourierPoly had the same ones), so Validate is what must
// notice the N-point polynomials and ask for regeneration.
func TestOldFormatKeyFile(t *testing.T) {
	type fourierPoly struct{ Re, Im []float64 }
	type fourierSample struct {
		Rows   [][]*fourierPoly
		K      int
		Params tgsw.Params
	}
	type oldCloudKey struct {
		Params *params.GateParams
		BK     []*fourierSample
		KS     *lwe.SwitchKey
	}
	ck := testCloudKey(t, "boot-old-format")
	old := oldCloudKey{Params: ck.Params, KS: ck.KS}
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
		old.BK = append(old.BK, fs)
	}
	var loaded CloudKey
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, old))).Decode(&loaded); err != nil {
		t.Fatalf("old-format key did not decode: %v", err)
	}
	if err := loaded.Validate(); !errors.Is(err, ErrOldKeyFormat) {
		t.Fatalf("Validate = %v, want ErrOldKeyFormat", err)
	}
}
