package store

import (
	"os"
	"time"
)

// Scrub revalidates checksums in both tiers and quarantines what fails:
// a corrupt hot entry is moved whole into the quarantine/ subdirectory
// (preserving the bytes for forensics) instead of waiting for a Get to
// trip over it; a corrupt cold record gets only its damaged segment region
// copied into quarantine/ and dead-marked — the segment's healthy records
// stay live, and the dead space is reclaimed by the next compaction. It
// returns how many entries were checked and how many were quarantined.
// Scrub holds locks only per-entry, so it runs concurrently with serving
// traffic.
func (s *Store) Scrub() (checked, quarantined int) {
	hc, hq := s.scrubHot()
	cc, cq := s.scrubCold()
	checked, quarantined = hc+cc, hq+cq
	s.mu.Lock()
	s.st.Scrubs++
	s.st.Scrubbed += uint64(checked)
	s.st.Quarantined += uint64(quarantined)
	s.mu.Unlock()
	return checked, quarantined
}

func (s *Store) scrubHot() (checked, quarantined int) {
	files, _ := s.hot.list()
	for _, f := range files {
		checked++
		if s.hot.quarantine(f.key) {
			quarantined++
		}
	}
	return checked, quarantined
}

// scrubCold CRC-checks every live record of every segment. A record that
// fails is dead-marked and has exactly its byte range copied to
// quarantine/: segment files are shared by many keys, so the healthy
// neighbors must stay serveable in place. Injected or transient read
// errors are skipped, not quarantined (the bytes on disk may be fine).
func (s *Store) scrubCold() (checked, quarantined int) {
	s.cold.mu.Lock()
	ids := make([]uint64, 0, len(s.cold.segs))
	for id := range s.cold.segs {
		ids = append(ids, id)
	}
	s.cold.mu.Unlock()
	for _, id := range ids {
		for _, ref := range s.cold.liveRefs(id) {
			checked++
			_, bad, _ := s.cold.read(ref)
			if bad == nil {
				continue // healthy, unreadable now, or re-homed by a rewrite
			}
			quarantined++
			if q, err := quarantinePath(s.dir, s.cold.segPath(ref.segID), ref.rec.off); err == nil {
				_ = os.WriteFile(q, bad, 0o644) // evidence only: the record is retired either way
			}
		}
	}
	return checked, quarantined
}

// StartScrubber runs Scrub about every interval (jittered ±25%, like the
// compactor, so fleets desynchronize) on a background loop until Close. A
// second call replaces the previous scrubber.
func (s *Store) StartScrubber(interval time.Duration) {
	s.startLoop(&s.scrubber, interval, func() { s.Scrub() })
}
