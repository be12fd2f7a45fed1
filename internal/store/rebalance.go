package store

import "slices"

// Rebalance support: key enumeration.
//
// The server's rebalance pass walks every locally resident key and makes
// it present on each replica that should hold it. It keeps no progress
// record here: a value is a pure function of its spec, so a pass cut short
// costs at most a re-walk, and a re-walk of keys already delivered costs
// one key-list presence check per batch. A rebalance/ subdirectory that an
// older version left behind is, like quarantine/, invisible to the tier
// scans and to Keys, and is ignored.

// Keys lists every key resident in either tier, sorted ascending. Keys in
// both tiers (promotion races) appear once. Hot keys come from directory
// entry names alone — no per-file stat — so listing a large store costs one
// directory read. The listing is a snapshot: concurrent puts and evictions
// may or may not be reflected — acceptable for the rebalance walk, whose
// next pass lists again.
func (s *Store) Keys() []string {
	// The listing is sorted by name, so hot keys arrive sorted.
	files, _ := s.hot.list()
	out := make([]string, 0, len(files))
	for _, f := range files {
		out = append(out, f.key)
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
