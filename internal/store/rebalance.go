package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Rebalance support: key enumeration and a persisted cursor.
//
// The server's rebalance pass walks every locally resident key and makes
// it present on each replica that should hold it. The walk is resumable:
// the pass checkpoints (epoch, upper bound of the last key range it
// delivered without error) here, so a crash mid-pass restarts from the
// cursor instead of from the top. The cursor is advisory metadata —
// losing it costs a re-walk (skips are cheap: one key-list presence check
// per batch tells the pass what the destination already holds), never a
// wrong answer.
//
// The cursor lives in the rebalance/ subdirectory, which — like
// quarantine/ — is invisible to the tier scans, so it is never counted
// against or evicted by the LRU budget.

// rebalanceDir is the subdirectory the rebalance cursor lives in.
const rebalanceDir = "rebalance"

// rebalanceCursor is the persisted checkpoint format.
type rebalanceCursor struct {
	Epoch uint64 `json:"epoch"`
	After string `json:"after"` // last key delivered, "" = none yet
}

func (s *Store) rebalanceCursorPath() string {
	return filepath.Join(s.dir, rebalanceDir, "cursor.json")
}

// Keys lists every key resident in either tier, sorted ascending. Keys in
// both tiers (promotion races) appear once. Hot keys come from directory
// entry names alone — no per-file stat — so listing a large store costs one
// directory read. The listing is a snapshot: concurrent puts and evictions
// may or may not be reflected — acceptable for the rebalance walk, whose
// next pass lists again.
func (s *Store) Keys() []string {
	// Sorted by name, so hot keys arrive sorted. A failed read lists what
	// it got; the next walk lists again.
	ents, _ := os.ReadDir(s.dir)
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		if key, ok := strings.CutSuffix(e.Name(), suffix); ok && !e.IsDir() && ValidKey(key) {
			out = append(out, key)
		}
	}
	hot := len(out)
	s.cold.mu.Lock()
	for key := range s.cold.index {
		out = append(out, key)
	}
	s.cold.mu.Unlock()
	if len(out) > hot {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// SetRebalanceCursor checkpoints the rebalance walk: every key <= after is
// present on each of its replicas in the ring at epoch. Written directly
// (not temp+rename): a torn cursor fails to parse and reads as "no
// cursor", which just restarts the walk.
func (s *Store) SetRebalanceCursor(epoch uint64, after string) error {
	dir := filepath.Join(s.dir, rebalanceDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rebalanceCursor{Epoch: epoch, After: after})
	if err != nil {
		return err
	}
	return os.WriteFile(s.rebalanceCursorPath(), b, 0o644)
}

// RebalanceCursor reads the persisted checkpoint. ok=false means no usable
// cursor (absent, unreadable, or torn) — start the walk from the top.
func (s *Store) RebalanceCursor() (epoch uint64, after string, ok bool) {
	b, err := os.ReadFile(s.rebalanceCursorPath())
	if err != nil {
		return 0, "", false
	}
	var c rebalanceCursor
	if json.Unmarshal(b, &c) != nil {
		return 0, "", false
	}
	return c.Epoch, c.After, true
}

// ClearRebalanceCursor drops the checkpoint (the walk for its epoch
// completed). Missing cursors are not an error.
func (s *Store) ClearRebalanceCursor() {
	os.Remove(s.rebalanceCursorPath())
}
