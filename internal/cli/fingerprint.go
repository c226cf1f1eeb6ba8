package cli

// Run fingerprints: the scenario/config identity embedded in fleet
// checkpoints and shard artifacts. Resuming a checkpoint or merging
// shards is only sound against the exact same run — same scenario
// file bytes (or ehfleet's generated flag-mode document plus the
// model content), same expansion seed, same resolved fleet size — so
// the CLIs hash that identity here and
// internal/fleet rejects any state whose fingerprint differs
// (fleet.ErrCheckpointMismatch, fleet.ErrShardMismatch).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
)

// FleetFingerprint hashes an ordered list of identity parts into a
// run fingerprint (hex SHA-256). Parts are length-prefixed, so two
// distinct part lists never collide by concatenation.
func FleetFingerprint(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ScenarioFingerprint is the run identity of a scenario-file fleet:
// the file's exact bytes, the expansion seed, and the resolved fleet
// size (after any -n resize). A checkpoint or shard taken under a
// different file revision, seed or size is rejected at resume/merge
// time instead of silently producing mixed output.
func ScenarioFingerprint(path string, seed int64, n int) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("fingerprinting %s: %w", path, err)
	}
	return ScenarioBytesFingerprint(data, seed, n), nil
}

// ScenarioBytesFingerprint is ScenarioFingerprint over an in-memory
// scenario document — the fleet service fingerprints the POSTed body
// bytes it persisted, so a daemon restart resumes against exactly the
// submitted document, byte for byte.
func ScenarioBytesFingerprint(data []byte, seed int64, n int) string {
	sum := sha256.Sum256(data)
	return FleetFingerprint(
		"scenario",
		hex.EncodeToString(sum[:]),
		fmt.Sprintf("seed=%d", seed),
		fmt.Sprintf("n=%d", n),
	)
}
