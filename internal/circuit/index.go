package circuit

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
)

// Index is an open-addressed hash-consing index from keys to int32 ids that
// stores no keys. Each 8-byte slot holds a 32-bit tag taken from the key's
// hash and the id plus one, so a zero word is an empty slot. A lookup walks
// the linear probe chain from the tag's home slot and yields every id whose
// tag matches; the caller confirms each against its own record of that id's
// key (a gate, a function), so no key is stored twice. The index keeps its
// load at most one half and doubles when an insert would pass that.
//
// Hashes are a wyhash-style multiply-fold (Mix) keyed by two odd words drawn
// from a maphash seed made per index, so which keys share a probe chain
// differs from table to table and cannot be chosen by whoever supplies the
// keys (a tenant uploading a program, say). Nothing the caller builds
// depends on the keys: an id is found or not regardless of where it sits in
// the table.
type Index struct {
	slots  []uint64 // tag<<32 | id+1; 0 is an empty slot
	used   int
	k0, k1 uint64 // hash keys, odd
	keep   uint64 // bits of every hash kept: all of them, unless a test forces collisions
}

// minIndexSlots is the smallest table an index allocates.
const minIndexSlots = 16

// NewIndex returns an empty index that holds n ids without growing, under a
// fresh random seed. With n ≤ 0 it allocates nothing until the first insert.
func NewIndex(n int) Index {
	seed := maphash.MakeSeed()
	x := Index{
		k0:   maphash.Bytes(seed, []byte{0}) | 1,
		k1:   maphash.Bytes(seed, []byte{1}) | 1,
		keep: ^uint64(0),
	}
	x.Reserve(n)
	return x
}

// NewCollidingIndex returns an index whose hash keeps no bit of the key:
// every id gets the same tag and home slot, so each lookup walks one chain
// and confirms every id on it. It exists for tests of that confirmation and
// probing; each lookup costs time linear in the index's size.
func NewCollidingIndex(n int) Index {
	x := NewIndex(n)
	x.keep = 0
	return x
}

// Len returns the number of ids in the index.
func (x *Index) Len() int { return x.used }

// Reserve makes room for n more ids, so the next n inserts do not grow the
// table.
func (x *Index) Reserve(n int) {
	if n <= 0 {
		return
	}
	if need := 2 * (x.used + n); need > len(x.slots) {
		x.resize(max(minIndexSlots, 1<<bits.Len(uint(need-1))))
	}
}

// Mix multiplies a and b into 128 bits and folds the halves together
// (wyhash's mum): every bit of the result depends on every bit of both
// operands. It is the step of every keyed hash of the compile path.
func Mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// HashWord returns the hash of a one-word key: the key against both index
// keys, folded, then folded once more so the tag's bits mix every key bit.
func (x *Index) HashWord(k uint64) uint64 {
	return Mix(Mix(k^x.k0, k^x.k1)^x.k0, x.k1) & x.keep
}

// HashBytes returns the hash of a key laid out as bytes: each 16-byte
// chunk (the last one zero-padded) is folded into a running hash that
// starts from the key's length, and the result is folded once more.
func (x *Index) HashBytes(b []byte) uint64 {
	h := x.k1 ^ uint64(len(b))
	for ; len(b) >= 16; b = b[16:] {
		h = Mix(binary.LittleEndian.Uint64(b)^x.k0, binary.LittleEndian.Uint64(b[8:])^h)
	}
	if len(b) > 0 {
		var lo, hi uint64
		if len(b) >= 8 {
			lo, hi = binary.LittleEndian.Uint64(b), partialWord(b[8:])
		} else {
			lo = partialWord(b)
		}
		h = Mix(lo^x.k0, hi^h)
	}
	return Mix(h^x.k0, x.k1) & x.keep
}

// partialWord reads fewer than 8 bytes as a little-endian word.
func partialWord(b []byte) uint64 {
	var w uint64
	for i, c := range b {
		w |= uint64(c) << (8 * i)
	}
	return w
}

// Probe is one lookup's walk along a probe chain.
type Probe struct {
	pos uint64
	tag uint64
}

// Probe starts the lookup of a key with hash h.
func (x *Index) Probe(h uint64) Probe {
	tag := h >> 32
	return Probe{pos: tag & uint64(len(x.slots)-1), tag: tag}
}

// Next returns the next id on p's chain whose tag matches, or false at the
// chain's end. p then names the empty slot that ended it, where Insert puts
// a new id.
func (x *Index) Next(p *Probe) (int32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for {
		s := x.slots[p.pos]
		if s == 0 {
			return 0, false
		}
		p.pos = (p.pos + 1) & mask
		if s>>32 == p.tag {
			return int32(uint32(s) - 1), true
		}
	}
}

// Insert adds id at the end of p's chain. p must come from a lookup whose
// Next has just returned false, with no insert in between.
func (x *Index) Insert(p *Probe, id int32) {
	if len(x.slots) == 0 {
		x.resize(minIndexSlots)
		*p = x.Probe(p.tag << 32)
	}
	x.slots[p.pos] = p.tag<<32 | uint64(uint32(id)+1)
	x.used++
	if 2*x.used > len(x.slots) {
		x.resize(2 * len(x.slots))
	}
}

// Add inserts id under hash h, at the end of h's chain, without looking
// for an equal key: the caller knows there is none.
func (x *Index) Add(h uint64, id int32) {
	p := x.Probe(h)
	for _, ok := x.Next(&p); ok; _, ok = x.Next(&p) {
	}
	x.Insert(&p, id)
}

// resize moves every entry into a table of n slots (a power of two). An
// entry's home slot comes from its tag alone, so nothing is rehashed.
func (x *Index) resize(n int) {
	old := x.slots
	x.slots = make([]uint64, n)
	mask := uint64(n - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		pos := s >> 32 & mask
		for x.slots[pos] != 0 {
			pos = (pos + 1) & mask
		}
		x.slots[pos] = s
	}
}
