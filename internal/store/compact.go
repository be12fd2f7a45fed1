package store

import "time"

// rewriteLiveFrac: a segment whose record region is less than this fraction
// live is sparse enough to be worth rewriting.
const rewriteLiveFrac = 0.5

// segmentTarget is the migration batch: about this much uncompressed entry
// data goes into each new segment.
const segmentTarget = 4 << 20

// Compact runs one compaction pass: migrate aged-out hot entries into cold
// segments, rewrite sparse segments to reclaim dead space, then re-enforce
// the size budget. It returns how many entries were migrated and how many
// segments were rewritten. Compact holds no store-wide lock — it batches
// work tier-side and runs concurrently with serving traffic.
func (s *Store) Compact() (migrated, rewritten int) {
	migrated = s.migrate()
	rewritten = s.reclaim(func() bool { return false })
	s.enforceBudget("")
	s.count(&s.st.Compactions)
	return migrated, rewritten
}

// reclaim rewrites sparse segments, sparsest first, until enough reports
// true or a rewrite fails, and returns how many it rewrote. A compaction
// pass rewrites them all; the budget stops once the store fits.
func (s *Store) reclaim(enough func() bool) (rewritten int) {
	for _, id := range s.cold.sparseSegments(rewriteLiveFrac) {
		if enough() {
			break
		}
		if err := s.cold.rewrite(id); err != nil {
			s.count(&s.st.CompactErrors)
			break
		}
		rewritten++
		s.count(&s.st.SegmentRewrites)
	}
	return rewritten
}

// migrate packs hot entries that aged past ColdAge (plus the oldest
// overflow beyond a quarter of MaxBytes) into cold segments, batched near
// segmentTarget bytes of entry data per segment, and removes the hot files
// only after the segment is installed and verified. A failed batch leaves
// its entries in the hot tier — migration can lose a fault race, never
// data.
func (s *Store) migrate() (migrated int) {
	vics := s.hot.victims(time.Now().Add(-s.opt.ColdAge), s.opt.MaxBytes/4)
	if len(vics) == 0 {
		return 0
	}
	batch := make([]segEntry, 0, 64)
	var batchBytes int64
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := s.cold.PutBatch(batch); err != nil {
			s.count(&s.st.CompactErrors)
		} else {
			for _, e := range batch {
				s.hot.Delete(e.key)
				migrated++
			}
			s.mu.Lock()
			s.st.Migrated += uint64(len(batch))
			s.mu.Unlock()
		}
		batch = batch[:0]
		batchBytes = 0
	}
	for _, v := range vics {
		// peek, not get: reading for migration must not refresh the LRU
		// clock and re-heat the entry.
		payload, _, _, err := s.hot.get(v.key, false)
		if err != nil {
			continue // vanished or corrupt (already dropped); nothing to move
		}
		batch = append(batch, segEntry{key: v.key, value: payload})
		batchBytes += int64(len(payload))
		if batchBytes >= segmentTarget {
			flush()
		}
	}
	flush()
	return migrated
}

// StartCompactor runs Compact about every interval (jittered ±25% so N
// daemons sharing a filesystem don't compact in lockstep) on a background
// loop until Close. A second call replaces the previous compactor.
func (s *Store) StartCompactor(interval time.Duration) {
	s.startLoop(&s.compactor, interval, func() { s.Compact() })
}
