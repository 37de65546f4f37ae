package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"

	"pytfhe/internal/plan"
)

// contentHash digests everything the worker's execution of this shard
// depends on: the source-plan fingerprint, the shard's position in the
// decomposition, the value-table shape, the full instruction stream, and
// the export manifest. Two shards hash equal exactly when a cached replay
// runtime built from one can execute the other, which is what makes the
// hash safe as the ship-once cache key.
func (sh *Shard) contentHash() string {
	h := sha256.New()
	io.WriteString(h, sh.PlanHash) // sha256.Write cannot fail
	writeShardInt(h, int64(sh.Index))
	writeShardInt(h, int64(sh.Count))
	writeShardInt(h, int64(sh.Slots))
	writeShardInt(h, int64(len(sh.Levels)))
	for li := range sh.Levels {
		writeShardInt(h, int64(len(sh.Levels[li])))
		for _, ins := range sh.Levels[li] {
			h.Write(plan.HashInstrBytes(ins))
		}
		writeShardInt(h, int64(len(sh.Exports[li])))
		for _, ref := range sh.Exports[li] {
			writeShardInt(h, int64(ref))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeShardInt(w io.Writer, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	w.Write(buf[:]) // sha256.Write cannot fail
}
