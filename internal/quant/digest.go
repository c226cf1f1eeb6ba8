package quant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"ehdl/internal/fixed"
)

// ContentDigest returns the SHA-256 of the model's gob encoding — the
// content address fleet memoization keys device runs on. It is
// computed once and cached on the model; the cache is safe under
// concurrent readers (racing first calls hash the same immutable
// fields and store equal digests). Callers must not mutate a model
// after its digest has been taken.
func (m *Model) ContentDigest() [32]byte {
	if d := m.digest.Load(); d != nil {
		return *d
	}
	h := sha256.New()
	if err := gob.NewEncoder(h).Encode(m); err != nil {
		// Model is gob-serializable by construction (model artifacts
		// carry the same encoding); an in-memory encode cannot fail.
		panic(fmt.Sprintf("quant: hashing model %q: %v", m.Name, err))
	}
	var d [32]byte
	h.Sum(d[:0])
	m.digest.Store(&d)
	return d
}

// HashQ15 returns the SHA-256 of a Q15 slice (little-endian int16
// stream) — the input half of a fleet memo key. The words stream
// through a fixed chunk, so the hash needs no 2·len(xs)-byte copy.
func HashQ15(xs []fixed.Q15) [32]byte {
	h := sha256.New()
	var chunk [512]byte
	for len(xs) > 0 {
		n := min(len(xs), len(chunk)/2)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint16(chunk[2*i:], uint16(x))
		}
		h.Write(chunk[:2*n])
		xs = xs[n:]
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}
