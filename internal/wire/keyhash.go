// Package wire holds what PyTFHE's two TCP protocols — the cluster
// coordinator↔worker link and the pytfhed client↔daemon link — share
// beyond their gob-framed envelopes: a content hash of the cloud key that
// every peer computes alike (KeyHash) and byte counters on a connection
// (Meter). No envelope has an interface-typed field, so gob needs no type
// registration.
//
// The package also pins the serialized ciphertext size. The paper's Fig. 7
// communication profile charges ≈2.46 KB per ciphertext — (n+1) 4-byte
// torus elements at n = 630 — and the coordinator's BytesSent accounting
// relies on params.CiphertextBytes matching that figure. A regression test
// here keeps both the raw figure and gob's framing overhead honest.
package wire

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/torus"
)

// KeyHash content-addresses a cloud key by streaming a canonical encoding
// through SHA-256 (no buffering of the ~62 MB key). Both the daemon's
// session registry and the cluster handshake use it, so a worker joining a
// coordinator can prove it will evaluate under the same key the clients
// encrypted against.
//
// The encoding hashed here is purpose-built rather than gob: gob assigns
// its wire type IDs process-globally in first-use order, so two processes
// that did different gob work before hashing the same key disagree on the
// byte stream (and therefore the hash). The cluster handshake compares
// hashes computed in three different binaries — client, daemon, worker —
// so the hash must depend on key content alone. Every field is length- or
// presence-prefixed, making the encoding prefix-free across keys.
func KeyHash(ck *boot.CloudKey) (string, error) {
	if ck == nil {
		return "", fmt.Errorf("wire: hash cloud key: nil key")
	}
	h := sha256.New()
	w := bufio.NewWriter(h)
	e := keyHasher{w: w, blk: make([]byte, 4096)}
	// Domain tag: v1 hashed the retired full-complex bootstrapping key and v2
	// the retired one-sample-per-row key-switching key, so a peer still on
	// either format can never agree on a hash with this one.
	e.str("pytfhe-cloud-key-v3-flat-ks")
	e.params(ck.Params)
	e.u64(uint64(len(ck.BK)))
	for _, s := range ck.BK {
		e.bk(s)
	}
	e.ks(ck.KS)
	// bufio.Writer into sha256.Hash never fails; Flush surfaces nothing.
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("wire: hash cloud key: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// keyHasher streams primitive values into the hash in fixed-width
// little-endian form, staging them in blk, one block per KeyHash. Writes
// into a sha256 digest cannot fail, so the helpers drop bufio's
// always-nil errors.
type keyHasher struct {
	w   *bufio.Writer
	blk []byte
}

func (e keyHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.blk, v)
	e.w.Write(e.blk[:8])
}

func (e keyHasher) i64(v int) { e.u64(uint64(int64(v))) }

func (e keyHasher) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e keyHasher) str(s string) {
	e.i64(len(s))
	e.w.WriteString(s)
}

func (e keyHasher) params(p *params.GateParams) {
	if p == nil {
		e.u64(0)
		return
	}
	e.u64(1)
	e.str(p.Name)
	e.i64(p.LWEDimension)
	e.f64(p.LWEStdev)
	e.i64(p.PolyDegree)
	e.i64(p.RingCount)
	e.f64(p.TLWEStdev)
	e.i64(p.DecompLevels)
	e.i64(p.DecompBaseLog)
	e.i64(p.KSLevels)
	e.i64(p.KSBaseLog)
}

// bk hashes one bootstrapping-key entry as its rows of polynomials, each
// real parts then imaginary parts: the stream the per-row layout hashed,
// so the flat layout kept every key's hash. An entry whose flat data is no
// whole number of polynomials hashes as -1 rows and its raw floats.
func (e keyHasher) bk(s *tgsw.HalfSample) {
	if s == nil {
		e.u64(0)
		return
	}
	e.u64(1)
	e.i64(s.K)
	e.i64(s.Params.Levels)
	e.i64(s.Params.BaseLog)
	n := s.PolyLen()
	if n < 0 {
		e.i64(-1)
		e.floats(s.Flat)
		return
	}
	e.i64(s.RowCount())
	for u := 0; u < s.RowCount(); u++ {
		e.i64(s.K + 1)
		for c := 0; c <= s.K; c++ {
			p := torus.HalfAt(s.Flat, n/2, u*(s.K+1)+c)
			e.u64(1)
			e.floats(p.Re)
			e.floats(p.Im)
		}
	}
}

// floats hashes a length-prefixed run of float64s as little-endian bit
// patterns, in blocks.
func (e keyHasher) floats(v []float64) {
	e.i64(len(v))
	for rest := v; len(rest) > 0; {
		n := min(len(rest), len(e.blk)/8)
		for i, x := range rest[:n] {
			binary.LittleEndian.PutUint64(e.blk[8*i:], math.Float64bits(x))
		}
		e.w.Write(e.blk[:8*n])
		rest = rest[n:]
	}
}

// ks hashes the key-switching key's shape, its row variance and its flat
// rows as little-endian words, in blocks.
func (e keyHasher) ks(k *lwe.SwitchKey) {
	if k == nil {
		e.u64(0)
		return
	}
	e.u64(1)
	e.i64(k.NIn)
	e.i64(k.NOut)
	e.i64(k.Levels)
	e.i64(k.BaseLog)
	e.f64(k.RowVariance)
	e.i64(len(k.Flat))
	for rest := k.Flat; len(rest) > 0; {
		n := min(len(rest), len(e.blk)/4)
		for i, v := range rest[:n] {
			binary.LittleEndian.PutUint32(e.blk[4*i:], v)
		}
		e.w.Write(e.blk[:4*n])
		rest = rest[n:]
	}
}
