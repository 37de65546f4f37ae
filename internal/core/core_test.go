package core

import (
	"errors"
	"sync"
	"testing"

	"pytfhe/internal/asm"
	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/params"
)

var (
	kpOnce sync.Once
	testKP *KeyPair
)

func keyPair(t testing.TB) *KeyPair {
	kpOnce.Do(func() {
		kp, err := GenerateKeysSeeded(params.Test(), []byte("core-test"))
		if err != nil {
			panic(err)
		}
		testKP = kp
	})
	return testKP
}

func comparator4() *circuit.Netlist {
	b := circuit.NewBuilder("cmp4", circuit.AllOptimizations())
	a := b.Inputs("a", 4)
	bb := b.Inputs("b", 4)
	// a > b unsigned via ripple borrow.
	borrow := b.Const(false)
	for i := 0; i < 4; i++ {
		axb := b.Xnor(a[i], bb[i])
		borrow = b.Mux(axb, borrow, bb[i])
	}
	b.Output("b_gt_a", borrow)
	return b.MustBuild()
}

func TestCompileRunEndToEnd(t *testing.T) {
	kp := keyPair(t)
	prog, err := Compile(comparator4())
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Binary) == 0 || prog.Stats.Gates == 0 {
		t.Fatalf("program not fully populated: %+v", prog.Stats)
	}
	for _, tc := range []struct {
		a, b uint64
	}{{3, 9}, {9, 3}, {7, 7}, {0, 15}} {
		bits := make([]bool, 8)
		for i := 0; i < 4; i++ {
			bits[i] = tc.a>>uint(i)&1 == 1
			bits[4+i] = tc.b>>uint(i)&1 == 1
		}
		want, err := RunPlain(prog, bits)
		if err != nil {
			t.Fatal(err)
		}
		if want[0] != (tc.b > tc.a) {
			t.Fatalf("plain comparator wrong for %v", tc)
		}
		outs, err := Run(prog, backend.NewSingle(kp.Cloud), kp.EncryptBits(bits))
		if err != nil {
			t.Fatal(err)
		}
		got := kp.DecryptBits(outs)
		if got[0] != want[0] {
			t.Fatalf("homomorphic comparator disagrees on %v", tc)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	prog, err := Compile(comparator4())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(prog.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats.Gates != prog.Stats.Gates {
		t.Fatalf("gate count changed: %d vs %d", back.Stats.Gates, prog.Stats.Gates)
	}
	bits := []bool{true, false, true, false, false, true, false, false}
	a, _ := RunPlain(prog, bits)
	b, _ := RunPlain(back, bits)
	if a[0] != b[0] {
		t.Fatal("loaded program disagrees with original")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("not a program")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestLoadRejectsUnknownMarker: a marker record (F1 all ones) is an input
// only with nibble 0xF and F2 all ones, and an output only with nibble
// 0x3. Re-typing the last output record to any other marker must be a
// layout error for both the disassembler and Load, as it is for the linter.
func TestLoadRejectsUnknownMarker(t *testing.T) {
	prog, err := Compile(comparator4())
	if err != nil {
		t.Fatal(err)
	}
	last := len(prog.Binary) - asm.InstructionSize
	for _, nibble := range []byte{0x7, 0xF} {
		bin := append([]byte(nil), prog.Binary...)
		bin[last] = bin[last]&0xF0 | nibble // the type nibble is the low 4 bits
		if _, err := asm.Disassemble(bin); !errors.Is(err, asm.ErrBadLayout) {
			t.Errorf("nibble %#x: Disassemble err %v, want ErrBadLayout", nibble, err)
		}
		if _, err := Load(bin); !errors.Is(err, asm.ErrBadLayout) {
			t.Errorf("nibble %#x: Load err %v, want ErrBadLayout", nibble, err)
		}
		if asm.Lint(bin).Err() == nil {
			t.Errorf("nibble %#x: Lint passed", nibble)
		}
	}
}

func TestCalibrateGateTime(t *testing.T) {
	kp := keyPair(t)
	gt, err := CalibrateGateTime(kp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gt <= 0 {
		t.Fatalf("calibrated gate time %v", gt)
	}
}

func TestGenerateKeysValidatesParams(t *testing.T) {
	bad := params.Test()
	bad.PolyDegree = 3
	if _, err := GenerateKeysSeeded(bad, []byte("x")); err == nil {
		t.Fatal("invalid parameters accepted")
	}
}

// TestMessageRoundTrip checks EncryptMessage/DecryptMessage across message
// space sizes, including negative messages (which wrap to their canonical
// residue mod msize) and the m == msize boundary (which wraps to 0).
func TestMessageRoundTrip(t *testing.T) {
	kp := keyPair(t)
	for _, msize := range []int32{2, 4, 8, 16, 64} {
		messages := []int32{0, 1, msize / 2, msize - 1, msize, msize + 1, -1, -2, -msize}
		for _, m := range messages {
			want := ((m % msize) + msize) % msize
			ct := kp.EncryptMessage(m, msize)
			if got := kp.DecryptMessage(ct, msize); got != want {
				t.Errorf("msize %d: message %d decrypted to %d, want %d", msize, m, got, want)
			}
		}
	}
}

// TestMessageSlotsDistinct checks every slot of the largest supported test
// message space decodes to itself — fresh noise stays within half a slot.
func TestMessageSlotsDistinct(t *testing.T) {
	kp := keyPair(t)
	const msize = 64
	for m := int32(0); m < msize; m++ {
		ct := kp.EncryptMessage(m, msize)
		if got := kp.DecryptMessage(ct, msize); got != m {
			t.Errorf("slot %d decoded as %d", m, got)
		}
	}
}
