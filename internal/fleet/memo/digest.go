package memo

import (
	"bytes"
	"sync/atomic"
	"unsafe"

	"ehdl/internal/fixed"
	"ehdl/internal/quant"
)

// The input digest cache. A fleet's devices share a handful of input
// slices (a model bundle converts its test set once), so hashing each
// device's input is the same SHA-256 repeated per device. The cache
// maps a slice's backing address and length to a set of four entries;
// each entry holds its own copy of the words it hashed, and a digest
// is served only when the probed words equal that copy byte for byte.
// An address is therefore only a place to look, never evidence: a
// slice mutated in place, or a new slice that reuses a freed address,
// differs from the copy (or equals it, and then has the same digest),
// so soundness does not depend on callers leaving inputs alone.
//
// Four ways keep a fleet's inputs from evicting each other: 64 inputs
// over 256 sets put three in one set about half the time, which two
// ways would turn into a re-hash on one probe in twenty.
const (
	digestSetBits = 8
	digestWays    = 4
	// digestSlots bounds the cache's entry count.
	digestSlots = digestWays << digestSetBits
	// digestMaxWords bounds an entry's copy (8 KiB); longer inputs
	// hash on every probe, which keeps the cache under 8 MiB.
	digestMaxWords = 1 << 12
)

type digestEntry struct {
	words  []byte // the hashed words' bytes, in memory order
	digest [32]byte
}

var inputDigests [digestSlots]atomic.Pointer[digestEntry]

// inputDigest returns quant.HashQ15(xs), from the cache when an entry
// for xs's address and length holds exactly xs's words.
func inputDigest(xs []fixed.Q15) [32]byte {
	if len(xs) == 0 || len(xs) > digestMaxWords {
		return quant.HashQ15(xs)
	}
	p := unsafe.Pointer(unsafe.SliceData(xs))
	view := unsafe.Slice((*byte)(p), 2*len(xs))
	set := inputDigests[digestSet(uintptr(p), len(xs)):][:digestWays]
	for w := range set {
		if e := set[w].Load(); e != nil && bytes.Equal(e.words, view) {
			return e.digest
		}
	}
	d := quant.HashQ15(xs)
	// Fill an empty way, else replace one picked by the digest, so
	// inputs that share a set settle into different ways.
	w := int(d[0]) % digestWays
	for k := range set {
		if set[k].Load() == nil {
			w = k
			break
		}
	}
	set[w].Store(&digestEntry{words: bytes.Clone(view), digest: d})
	return d
}

// digestSet returns the first slot of the set for a slice at addr
// with n words.
func digestSet(addr uintptr, n int) int {
	h := (uint64(addr) ^ uint64(n)<<48) * 0x9e3779b97f4a7c15
	return int(h>>(64-digestSetBits)) * digestWays
}
