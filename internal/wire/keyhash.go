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
	e := keyHasher{w: w}
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
// little-endian form. Writes into a sha256 digest cannot fail, so the
// helpers drop bufio's always-nil errors.
type keyHasher struct {
	w *bufio.Writer
}

func (e keyHasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.w.Write(b[:])
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

func (e keyHasher) bk(s *tgsw.HalfSample) {
	if s == nil {
		e.u64(0)
		return
	}
	e.u64(1)
	e.i64(s.K)
	e.i64(s.Params.Levels)
	e.i64(s.Params.BaseLog)
	e.i64(len(s.Rows))
	for _, row := range s.Rows {
		e.i64(len(row))
		for _, p := range row {
			if p == nil {
				e.u64(0)
				continue
			}
			e.u64(1)
			e.i64(len(p.Re))
			for _, v := range p.Re {
				e.f64(v)
			}
			e.i64(len(p.Im))
			for _, v := range p.Im {
				e.f64(v)
			}
		}
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
	var b [4096]byte
	for rest := k.Flat; len(rest) > 0; {
		n := min(len(rest), len(b)/4)
		for i, v := range rest[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		e.w.Write(b[:4*n])
		rest = rest[n:]
	}
}
