// Package store is a content-addressed, tiered, on-disk result store for
// the netcached service: key = hex SHA-256 of the canonical JSON encoding
// of a RunSpec, value = the serialized Result.
//
// Because every simulation is bit-deterministic, the store never needs
// invalidation — a key's value can only ever be one byte string. The store
// therefore optimizes for crash-safety and bounded size instead, as a
// two-tier engine:
//
//   - The hot tier keeps the original one-file-per-key layout for recent
//     and active results: entries are written to a temp file and atomically
//     renamed, every read from disk validates a length+checksum header, and
//     the file mtime is the LRU clock. A serving Get remembers the payload
//     it verified in a table of at most 1 MiB, so a repeated hit reads no
//     file, and refreshes the mtime at most once a second, so a repeat
//     inside that second makes no system call at all: a remembered entry's
//     mtime lags its last serving hit by less than a second, and a file
//     removed behind the store's back is served for at most a second more.
//     A pre-engine store directory IS a hot tier, so old stores open and
//     migrate transparently.
//   - The cold tier packs aged-out entries into append-only, per-record
//     compressed, CRC-checksummed segment files under cold/, located by an
//     in-memory index rebuilt on open from segment footers (or salvaged by
//     a forward scan when a footer is torn or corrupt).
//
// A background compactor (StartCompactor) migrates cold keys into
// segments, rewrites sparse segments, and makes deletions durable via
// tombstone records; a background scrubber (StartScrubber) revalidates
// checksums in both tiers, quarantining corrupt hot entries whole and only
// the damaged region of a damaged segment. The LRU budget spans both
// tiers: over budget, dead segment space is compacted away first, then the
// oldest segments are evicted (by compaction, not per-key unlink), then
// hot entries go in mtime order. Any read failure in either tier is a miss
// to be recomputed — corruption is never served and never panics. The
// scrubber reads files, never the table: a hot file corrupted on disk
// after its value was remembered is served from the bytes verified then,
// until the scrubber quarantines the file, which forgets the value.
//
// Crash contract: the store never calls fsync. An acknowledged Put and an
// installed segment survive a crash of the process, not a power loss: a
// file the kernel had not yet written back may come back short or empty,
// and its checksum then makes it a miss to recompute.
//
// Crash recovery on open: stale put-* and seg-*.tmp temps are reaped,
// segment footers re-validated (salvaging what a torn write left valid),
// and keys resident in both tiers collapse to the hot copy. Every per-entry
// and per-segment file operation goes through the FS seam, so chaos tests
// drive the same code through deterministic fault injection (NewFaultFS).
package store

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"netcache/internal/loop"
)

// quarantineDir is the subdirectory corrupt entries are moved into by the
// scrubber, preserving the evidence instead of deleting it. Its contents
// never count against the LRU budget.
const quarantineDir = "quarantine"

// quarantinePath creates root's quarantine/ and names the evidence taken
// from file there: its base name when the whole file moves (off < 0), and
// <base>@<off>.bad when only the record at offset off is kept.
func quarantinePath(root, file string, off int64) (string, error) {
	qdir := filepath.Join(root, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Base(file)
	if off >= 0 {
		name = fmt.Sprintf("%s@%d.bad", name, off)
	}
	return filepath.Join(qdir, name), nil
}

// tempMaxAge is how old a put-* or seg-*.tmp temp file must be before Open
// treats it as a crash leftover rather than a concurrent writer's staging
// file.
const tempMaxAge = time.Hour

// reapTemps deletes the files among ents, a listing of dir, that match
// pattern and are older than tempMaxAge: staging files whose writer died
// before its rename. They would never be renamed, counted or evicted. A
// younger one may still belong to a live writer and is left alone.
func reapTemps(dir string, ents []os.DirEntry, pattern string) (reaped int) {
	for _, e := range ents {
		if ok, _ := filepath.Match(pattern, e.Name()); !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil || time.Since(info.ModTime()) < tempMaxAge {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			reaped++
		}
	}
	return reaped
}

// Stats are the store's monotonic counters plus current occupancy.
type Stats struct {
	Hits          uint64
	HotHits       uint64 // subset of Hits served from the hot tier
	HotMemoryHits uint64 // subset of HotHits answered from remembered bytes, no file read
	Touches       uint64 // hot entry mtime (LRU clock) refreshes made by serving hits
	ColdHits      uint64 // subset of Hits served from cold segments
	Misses        uint64 // absent, corrupt, or unreadable entries
	Corrupt       uint64 // subset of Misses that failed validation in either tier
	Puts          uint64
	PutErrors     uint64 // Put calls that failed (write/rename errors)
	Evictions     uint64 // entries evicted by the size bound, both tiers
	Promotions    uint64 // cold hits rewritten into the hot tier
	ReapedTemps   uint64 // stale put-* and seg-*.tmp files deleted by Open

	Scrubs      uint64 // completed scrub passes
	Scrubbed    uint64 // hot entries + cold records checksum-validated by the scrubber
	Quarantined uint64 // corrupt entries / segment regions quarantined

	Compactions      uint64 // completed compactor passes
	Migrated         uint64 // entries migrated hot → cold
	SegmentRewrites  uint64 // sparse segments rewritten to reclaim dead space
	SegmentsDropped  uint64 // whole segments evicted by the size bound
	SalvagedSegments uint64 // segments whose index was rebuilt by scan on open
	CompactErrors    uint64 // failed migration batches or rewrites

	Entries int   // live entries across both tiers
	Bytes   int64 // physical bytes on disk across both tiers

	HotEntries    int
	HotBytes      int64
	ColdEntries   int
	ColdBytes     int64 // live record bytes inside segments
	ColdDeadBytes int64 // dead segment space awaiting compaction
	Segments      int   // resident segment files
}

// Options configures OpenOptions.
type Options struct {
	// MaxBytes bounds the store's total on-disk size across both tiers
	// (<= 0: unbounded). A quarter of it bounds the hot tier: beyond that,
	// compaction migrates the oldest entries into cold segments.
	MaxBytes int64

	// ColdAge is how long a hot entry may sit unread before a compaction
	// pass migrates it to the cold tier (<= 0: 1h).
	ColdAge time.Duration

	// FS is the filesystem seam; nil means the real filesystem.
	FS FS
}

// Store is a size-bounded, two-tier, content-addressed cache directory. It
// is safe for concurrent use.
type Store struct {
	dir  string
	opt  Options
	hot  *hotTier
	cold *coldTier

	mu sync.Mutex
	st Stats // counters only; occupancy is derived from the tiers

	// budgetMu serializes budget enforcement (eviction + reclaim), which
	// walks directories and rewrites segments — one enforcer at a time.
	budgetMu sync.Mutex

	scrubber  *loop.Loop // nil until StartScrubber
	compactor *loop.Loop // nil until StartCompactor
}

// Open creates (if needed) and scans dir. maxBytes <= 0 disables eviction.
func Open(dir string, maxBytes int64) (*Store, error) {
	return OpenOptions(dir, Options{MaxBytes: maxBytes})
}

// OpenOptions opens the tiered engine. Stale temp files (crash leftovers
// older than an hour) are reaped so they cannot accumulate unbounded,
// uncounted and unevictable; segment indexes are rebuilt from footers,
// salvaged by scan when damaged.
func OpenOptions(dir string, opt Options) (*Store, error) {
	if opt.FS == nil {
		opt.FS = osFS{}
	}
	if opt.ColdAge <= 0 {
		opt.ColdAge = time.Hour
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:  dir,
		opt:  opt,
		hot:  newHotTier(dir, opt.FS),
		cold: newColdTier(dir, opt.FS),
	}
	hotFiles, reaped := s.hot.scan()
	if err := s.cold.open(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.st.ReapedTemps += uint64(reaped + s.cold.reaped)
	s.st.SalvagedSegments += uint64(s.cold.salvaged)
	s.st.Quarantined += uint64(s.cold.quarantined)
	// A crash between segment install and hot-file deletion leaves keys in
	// both tiers; the copies are byte-identical (content addressing), so
	// collapse to the hot one and dead-mark the cold record.
	for _, f := range hotFiles {
		s.cold.Delete(f.key)
	}
	s.enforceBudget("")
	return s, nil
}

// Close stops the background scrubber and compactor, if started, after
// the pass each may have in flight. The store itself holds no other
// resources.
func (s *Store) Close() error {
	s.mu.Lock()
	scrubber, compactor := s.scrubber, s.compactor
	s.scrubber, s.compactor = nil, nil
	s.mu.Unlock()
	scrubber.Stop()
	compactor.Stop()
	return nil
}

// startLoop runs pass about every interval on a background loop in *slot,
// stopping the loop it replaces. interval <= 0 starts nothing.
func (s *Store) startLoop(slot **loop.Loop, interval time.Duration, pass func()) {
	if interval <= 0 {
		return
	}
	s.mu.Lock()
	prev := *slot
	*slot = loop.Start(interval, func(context.Context) { pass() })
	s.mu.Unlock()
	prev.Stop()
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// ValidKey reports whether key is a store key: a lowercase hex SHA-256
// string, so keys can never escape dir. Servers check keys from the wire
// with it before touching disk.
func ValidKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(key); i++ {
		if !lowerHex[key[i]] {
			return false
		}
	}
	return true
}

// lowerHex marks the bytes a key may hold. It is a table because a hash
// mixes digits and letters at random: a range test's branches mispredict
// and ran about 9× slower, and Open checks every name in the root.
var lowerHex = func() (t [256]bool) {
	for _, c := range "0123456789abcdef" {
		t[c] = true
	}
	return t
}()

// Get returns the stored value for key, trying the hot tier first, then
// cold segments. A cold hit is promoted back into the hot tier (the entry
// is active again). Any failure — absent, injected read error, header,
// checksum, or index mismatch — is a miss: the caller recomputes and Puts,
// and corrupt bytes are dropped or dead-marked so they cannot shadow the
// rewrite. The returned bytes are shared with the hot tier's table of
// remembered values and with other callers: they must not be modified.
func (s *Store) Get(key string) ([]byte, bool) { return s.read(key, true) }

// Peek is Get for background readers — the cluster's rebalance pass and
// the peer presence check. It verifies the checksum and
// drops corrupt entries exactly like Get, but neither refreshes a hot
// entry's mtime (the LRU clock) nor promotes a cold hit: copying a key to
// a replica is not a sign that anyone reads it. For the same reason it
// reads the file and never adds to the table of remembered values. As
// with Get, the returned bytes must not be modified.
func (s *Store) Peek(key string) ([]byte, bool) { return s.read(key, false) }

// read is Get (serve set) and Peek (serve clear).
func (s *Store) read(key string, serve bool) ([]byte, bool) {
	if !ValidKey(key) {
		s.miss(false)
		return nil, false
	}
	v, remembered, touched, herr := s.hot.get(key, serve)
	if herr == nil {
		s.mu.Lock()
		s.st.Hits++
		s.st.HotHits++
		if remembered {
			s.st.HotMemoryHits++
		}
		if touched {
			s.st.Touches++
		}
		s.mu.Unlock()
		return v, true
	}
	v, cerr := s.cold.Get(key)
	if cerr == nil {
		s.mu.Lock()
		s.st.Hits++
		s.st.ColdHits++
		s.mu.Unlock()
		if serve {
			// Promote: the entry is active again. Failing to (full disk,
			// injected fault) is harmless — the value was already served,
			// and the cold record stays live.
			_ = s.write(key, v, &s.st.Promotions)
		}
		return v, true
	}
	s.miss(errors.Is(herr, ErrCorrupt) || errors.Is(cerr, ErrCorrupt))
	return nil, false
}

func (s *Store) miss(corrupt bool) {
	s.mu.Lock()
	s.st.Misses++
	if corrupt {
		s.st.Corrupt++
	}
	s.mu.Unlock()
}

// Put stores value under key in the hot tier. Oversized stores evict per
// the cross-tier LRU budget.
func (s *Store) Put(key string, value []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	if err := s.write(key, value, &s.st.Puts); err != nil {
		s.count(&s.st.PutErrors)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// write is the hot-tier write under Put and a cold hit's promotion. Once
// the entry is in place it bumps done, retires any cold record of key —
// the bytes are the same by construction, and one live copy is kept — and
// enforces the budget.
func (s *Store) write(key string, value []byte, done *uint64) error {
	if err := s.hot.put(key, value); err != nil {
		return err
	}
	s.count(done)
	s.cold.Delete(key)
	s.enforceBudget(key)
	return nil
}

// enforceBudget brings the store's total on-disk size under MaxBytes:
// first reclaim dead segment space (rewrite sparse segments), then evict
// the oldest cold segments whole — compaction, not per-key unlink — and
// finally evict hot entries in LRU (mtime) order. keep, the key just
// written, is never evicted from the hot tier.
func (s *Store) enforceBudget(keep string) {
	max := s.opt.MaxBytes
	if max <= 0 {
		return
	}
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()

	fits := func() bool { return s.hot.Stats().DiskBytes+s.cold.Stats().DiskBytes <= max }
	if fits() {
		return
	}
	// 1. Reclaim: rewriting a sparse segment frees its dead space without
	// losing any live entry.
	s.reclaim(fits)
	// 2. Evict cold: segments are time-ordered, so the oldest segment holds
	// the least-recently-useful entries (anything hot was promoted out).
	for !fits() {
		id, ok := s.cold.oldestSegment()
		if !ok {
			break
		}
		evicted := s.cold.dropSegment(id)
		s.mu.Lock()
		s.st.SegmentsDropped++
		s.st.Evictions += uint64(evicted)
		s.mu.Unlock()
	}
	// 3. Evict hot LRU down to whatever budget the cold tier leaves.
	coldDisk := s.cold.Stats().DiskBytes
	if evicted := s.hot.evict(max-coldDisk, keep); evicted > 0 {
		s.mu.Lock()
		s.st.Evictions += uint64(evicted)
		s.mu.Unlock()
	}
}

// count bumps one counter under mu.
func (s *Store) count(f *uint64) {
	s.mu.Lock()
	*f++
	s.mu.Unlock()
}

// Stats snapshots the counters and occupancy of both tiers.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.st
	s.mu.Unlock()
	h := s.hot.Stats()
	c := s.cold.Stats()
	st.HotEntries, st.HotBytes = h.Entries, h.DiskBytes
	st.ColdEntries, st.ColdBytes = c.Entries, c.Bytes
	st.ColdDeadBytes, st.Segments = c.DeadBytes, c.Files
	st.Entries = h.Entries + c.Entries
	st.Bytes = h.DiskBytes + c.DiskBytes
	return st
}
