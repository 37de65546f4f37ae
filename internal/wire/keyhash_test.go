package wire

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"testing"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

func testKey(t *testing.T, seed string) *boot.CloudKey {
	t.Helper()
	_, ck, err := boot.GenerateKeys(params.Test(), trand.NewSeeded([]byte(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestKeyHashIndependentOfGobState is the regression test for the cluster
// handshake's cross-binary key check. Gob assigns wire type IDs
// process-globally in first-use order, so a hash over gob output depends
// on what else the process has gob-encoded — and the client, daemon, and
// worker binaries each do different gob work before hashing the same key.
// KeyHash must therefore produce identical hashes before and after
// arbitrary unrelated gob traffic and across an encode/decode round trip
// of the key itself.
func TestKeyHashIndependentOfGobState(t *testing.T) {
	ck := testKey(t, "wire-keyhash")
	h1, err := KeyHash(ck)
	if err != nil {
		t.Fatal(err)
	}

	// Unrelated gob activity: churn the process-global type registry.
	type noise struct{ X map[string][]int }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(noise{X: map[string][]int{"a": {1}}}); err != nil {
		t.Fatal(err)
	}
	h2, err := KeyHash(ck)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash changed after unrelated gob traffic: %s vs %s", h1, h2)
	}

	// Round trip the key the way the serve and cluster streams carry it.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	var rt boot.CloudKey
	if err := gob.NewDecoder(&buf).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	h3, err := KeyHash(&rt)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h3 {
		t.Fatalf("hash changed across gob round trip: %s vs %s", h1, h3)
	}
}

// TestKeyHashDistinguishesKeys checks the hash actually depends on the key
// material, not just the parameter set.
func TestKeyHashDistinguishesKeys(t *testing.T) {
	h1, err := KeyHash(testKey(t, "tenant-a"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := KeyHash(testKey(t, "tenant-b"))
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatalf("distinct keys hashed identically: %s", h1)
	}
}

// TestKeyHashNil pins the error paths: a nil key (or a key that never got
// its parameters) must fail loudly rather than hash an empty skeleton.
func TestKeyHashNil(t *testing.T) {
	if _, err := KeyHash(nil); err == nil {
		t.Fatal("KeyHash(nil) did not fail")
	}
	ck := testKey(t, "wire-keyhash")
	mut := &boot.CloudKey{BK: ck.BK, KS: ck.KS}
	h1, err := KeyHash(mut)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := KeyHash(ck)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("params presence not reflected in hash")
	}
}

// TestKeyHashPinned pins the hash of one seeded Test cloud key, so a change
// to how the key is held in memory (its bootstrapping-key layout, say) can
// be shown to leave the hash — and so every peer's handshake — unchanged.
// A change to the random generator moves the key itself and re-pins it.
// The bootstrapping key is floating point, so its bits are those of the
// transform tier that made it: the AVX2 and AVX-512 tiers agree with each
// other, and the portable loops on amd64, which do not contract to FMA,
// give the second value. Other architectures may contract, so they skip.
func TestKeyHashPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("no pinned key bits for " + runtime.GOARCH)
	}
	const vector = "76eeb630c05c8731d05874af2fc9865071363c2314700a1d7b48442bb7d38bdb"
	want := map[string]string{
		"avx512": vector,
		"avx2":   vector,
		"go":     "677a398921afa511c25369e34eea5db394451916321097772e8b0b99c197e636",
	}[torus.KernelTier()]
	got, err := KeyHash(testKey(t, "keyhash-golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("KeyHash on the %s tier = %s, pinned %s", torus.KernelTier(), got, want)
	}
}
