package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
)

// Fingerprint returns a stable content hash of the compiled plan: the
// input count, the full instruction stream (levels, refs, kinds) and the
// output refs. Two plans share a fingerprint exactly when replay would
// execute the identical program, so the hash is the cache key for derived
// artifacts — internal/shard keys its ship-once shard cache on it. The
// bytes are those of the one-partition-per-level layout plans once had
// (a partition count of 1 before the levels, and before each level's
// length), so fingerprints recorded then still match. The hash is
// computed once and memoized; a Plan is immutable after Compile, so
// concurrent callers are safe.
func (p *Plan) Fingerprint() string {
	p.fpOnce.Do(func() {
		h := sha256.New()
		writeHashInt(h, int64(p.NumInputs))
		writeHashInt(h, 1)
		writeHashInt(h, int64(len(p.levels)))
		for _, lv := range p.levels {
			writeHashInt(h, 1)
			writeHashInt(h, int64(len(lv)))
			for _, ins := range lv {
				h.Write(HashInstrBytes(ins))
			}
		}
		writeHashInt(h, int64(len(p.outputs)))
		for _, ref := range p.outputs {
			writeHashInt(h, int64(ref))
		}
		p.fp = hex.EncodeToString(h.Sum(nil))
	})
	return p.fp
}

// HashInstrBytes renders one instruction into the canonical 19-byte layout
// shared by Plan.Fingerprint and internal/shard's manifest content hashes:
// a kind byte, Out/A/B as little-endian uint32, then Arity, a table byte,
// and C. A classic gate's table goes in the kind byte and a LUT's in the
// table byte, the other one zero, as in the layout's two-field days, so
// pre-LUT streams hash the same bytes per instruction with a constant
// suffix and recorded fingerprints still match. Callers must treat the
// result as read-only; it aliases a per-call stack buffer escape.
func HashInstrBytes(ins Instr) []byte {
	var buf [19]byte
	tableAt := 14
	if ins.Arity == 0 {
		tableAt = 0
	}
	buf[tableAt] = byte(ins.TT)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(ins.Out))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(ins.A))
	binary.LittleEndian.PutUint32(buf[9:13], uint32(ins.B))
	buf[13] = ins.Arity
	binary.LittleEndian.PutUint32(buf[15:19], uint32(ins.C))
	return buf[:]
}

func writeHashInt(w io.Writer, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	w.Write(buf[:]) // sha256.Write cannot fail
}
