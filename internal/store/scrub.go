package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"netcache/internal/loop"
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
	for _, e := range s.hot.scanLRU() {
		checked++
		if s.scrubHotOne(e.key) {
			quarantined++
		}
	}
	return checked, quarantined
}

// scrubHotOne validates one hot entry, quarantining it if corrupt. The
// first read runs unlocked; a failure is re-checked under the tier lock
// (serialized with put's rename) so a concurrent rewrite racing the read
// cannot get a fresh valid entry quarantined.
func (s *Store) scrubHotOne(key string) bool {
	b, err := s.hot.fsys.ReadFile(s.hot.path(key))
	if err == nil {
		if _, ok := decode(b); ok {
			return false
		}
	}
	return s.hot.quarantine(key)
}

// scrubCold CRC-checks every live record of every segment. A record that
// fails has exactly its byte range copied to quarantine/ and is
// dead-marked; injected or transient read errors are skipped, not
// quarantined (the bytes on disk may be fine).
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
			if s.scrubColdOne(ref) {
				quarantined++
			}
		}
	}
	return checked, quarantined
}

func (s *Store) scrubColdOne(ref coldRef) bool {
	path := s.cold.segPath(ref.segID)
	raw, err := s.cold.fsys.ReadRange(path, ref.rec.off, ref.rec.diskSize())
	if err != nil {
		return false // unreadable now ≠ corrupt on disk; leave it for Get to adjudicate
	}
	if _, err := decodeRecord(ref.rec, raw); err == nil {
		return false
	}
	s.cold.mu.Lock()
	cur, ok := s.cold.index[ref.rec.key]
	if !ok || cur != ref {
		s.cold.mu.Unlock()
		return false // re-homed by a rewrite while we were looking
	}
	s.cold.markDeadLocked(cur)
	delete(s.cold.index, ref.rec.key)
	s.cold.mu.Unlock()
	// Quarantine only the damaged region: segment files are shared by many
	// keys, so the healthy neighbors must stay serveable in place.
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return true
	}
	name := fmt.Sprintf("%s@%d.bad", filepath.Base(path), ref.rec.off)
	_ = os.WriteFile(filepath.Join(qdir, name), raw, 0o644)
	return true
}

// StartScrubber runs Scrub about every interval (jittered ±25%, like the
// compactor, so fleets desynchronize) on a background loop until Close. A
// second call replaces the previous scrubber.
func (s *Store) StartScrubber(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.mu.Lock()
	prev := s.scrubber
	s.scrubber = loop.Start(interval, func(context.Context) { s.Scrub() })
	s.mu.Unlock()
	prev.Stop()
}
