package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
)

// Fingerprint returns a stable content hash of the compiled plan: the
// full instruction stream (levels, batches, refs, kinds), the output refs,
// and the input/worker shape. Two plans share a fingerprint exactly when
// replay would execute the identical schedule, so the hash is the cache
// key for derived artifacts — internal/shard keys its ship-once shard
// cache on it. The hash is computed once and memoized; a Plan is immutable after Compile,
// so concurrent callers are safe.
func (p *Plan) Fingerprint() string {
	p.fpOnce.Do(func() {
		h := sha256.New()
		writeHashInt(h, int64(p.NumInputs))
		writeHashInt(h, int64(p.Workers))
		writeHashInt(h, int64(len(p.levels)))
		for _, lv := range p.levels {
			writeHashInt(h, int64(len(lv.Batches)))
			for _, instrs := range lv.Batches {
				writeHashInt(h, int64(len(instrs)))
				for _, ins := range instrs {
					h.Write(HashInstrBytes(ins))
				}
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
// Kind, Out/A/B as little-endian uint32, then Arity, TT, and C (zero for
// classic gates, so pre-LUT streams hash the same bytes per instruction
// with a constant suffix). Callers must treat the result as read-only; it
// aliases a per-call stack buffer escape.
func HashInstrBytes(ins Instr) []byte {
	var buf [19]byte
	buf[0] = byte(ins.Kind)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(ins.Out))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(ins.A))
	binary.LittleEndian.PutUint32(buf[9:13], uint32(ins.B))
	buf[13] = ins.Arity
	buf[14] = byte(ins.TT)
	binary.LittleEndian.PutUint32(buf[15:19], uint32(ins.C))
	return buf[:]
}

func writeHashInt(w io.Writer, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	w.Write(buf[:]) // sha256.Write cannot fail
}
