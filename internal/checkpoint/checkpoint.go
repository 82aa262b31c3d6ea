// Package checkpoint is the durable per-cell checkpoint store of the
// sweep fabric: a directory of atomic JSON envelopes, one per completed
// grid cell, keyed by the cell's content address (the SHA-256 of its
// canonical fetcell key, the same identity the fetserve cache uses).
//
// The store exists so a killed sweep resumes mid-grid: a shard runner
// writes each cell's aggregated row the moment it completes, and a
// restarted runner loads every valid envelope and skips those cells
// entirely. Because the cell key pins every parameter the row is a
// deterministic function of (scenario, engine, topology, n, ℓ,
// replicates, round cap, seed), a checkpoint can never be replayed
// against a different configuration — changing any parameter changes
// the key hash, and the stale envelope simply stops matching.
//
// Durability contract: writes are atomic (temp file + rename in the
// same directory), so a SIGKILL mid-write leaves a stale *.tmp file
// but never a torn envelope, and loads verify both content addresses —
// the file name against the key, the recorded digest against the body —
// rejecting anything corrupt or misnamed rather than trusting it. A
// resumed run is therefore byte-identical to an uninterrupted one: a
// cell is either fully checkpointed or re-run from its seed.
//
// What that survives: Save never calls fsync, on the file or on the
// directory. A finished Save survives the death of the process (SIGKILL,
// a crash, the OOM killer), because the kernel already holds the
// renamed file. It need not survive a power loss or a kernel crash:
// recent checkpoints may vanish, or a renamed file may come back torn
// or zero-filled. Such a file fails verification on load, which counts
// it as a miss, and its cell re-runs — so the resumed output is still
// byte-identical; only the saved work is lost.
package checkpoint

import (
	"fmt"
	"os"
	"strings"

	"passivespread/internal/serve"
)

// Envelope is the on-disk form of one checkpointed cell: the fetserve
// cache's envelope (the canonical key, the body — a sweep row in
// canonical JSON — and the body's own digest), written and verified by
// the same code, so either store can verify the other's files.
type Envelope = serve.Envelope

// Store is one checkpoint directory. Methods are safe for concurrent
// use by the sweep's worker pool: each cell writes exactly one file,
// distinct cells write distinct files, and re-writes of the same cell
// are idempotent replacements of identical bytes.
type Store struct {
	dir string
}

// Open creates the directory if needed and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %v", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Load returns the checkpointed body for a canonical key, or ok =
// false when no valid envelope exists. A present-but-invalid file
// (torn write, bit rot, hash mismatch, foreign key) is treated as a
// miss — the cell re-runs from its seed, which is always correct.
func (s *Store) Load(canonical string) ([]byte, bool) {
	env, ok := serve.ReadEnvelope(s.dir, serve.HashHex(canonical))
	if !ok || env.Key != canonical {
		return nil, false
	}
	return env.Body, true
}

// Save durably checkpoints body under the canonical key: marshal the
// envelope to a temp file in the store directory, then rename onto
// the final name. A crash at any point leaves either the old state or
// the new envelope, never a torn file that Load would accept.
func (s *Store) Save(canonical string, body []byte) error {
	if err := serve.WriteEnvelope(s.dir, canonical, body); err != nil {
		return fmt.Errorf("checkpoint: %v", err)
	}
	return nil
}

// Count returns the number of envelope files currently in the store
// (valid or not — it is a progress indicator, not a verification).
func (s *Store) Count() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %v", err)
	}
	n := 0
	for _, de := range entries {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
			n++
		}
	}
	return n, nil
}
