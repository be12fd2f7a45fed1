package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// coldDir is the subdirectory (under the store root) holding segment files.
const coldDir = "cold"

const segSuffix = ".seg"

// segment is one cold-tier file's live/dead accounting. Segments are
// immutable once installed: records die in the in-memory index (and via
// tombstones in later segments), and dead space is reclaimed by rewriting
// the survivors into a fresh segment.
type segment struct {
	size      int64 // file size on disk
	dataBytes int64 // record + index bytes (size - header - trailer)
	liveBytes int64 // record + index bytes owned by live records
}

// coldRef locates a key's live record.
type coldRef struct {
	segID uint64
	rec   segRecord
}

// coldTier packs evicted hot entries into append-only, compressed,
// checksummed segment files under <dir>/cold, keyed by an in-memory index
// (key → segment, offset, length) rebuilt on open from segment footers —
// or, when a footer fails validation, salvaged by a forward scan.
// PutBatch writes one segment per call.
type coldTier struct {
	dir  string // <store>/cold
	fsys FS

	mu     sync.Mutex
	segs   map[uint64]*segment
	index  map[string]coldRef
	nextID uint64
	// pendingTombs are keys deleted from the index whose records still sit
	// in some resident segment; the next PutBatch prepends tombstone records
	// for them so the deletion survives a reopen-before-compaction. (For a
	// content-addressed store resurrection is only a budget leak, never a
	// correctness bug — values are immutable — so the set is bounded, not
	// durable on its own.)
	pendingTombs map[string]struct{}

	// open-time recovery counters, read by the engine once after open.
	salvaged    int // segments whose index was rebuilt by scanning records
	quarantined int // segment files moved to quarantine/ (unreadable outright)
	reaped      int // stale seg-*.tmp compaction leftovers deleted
}

// maxPendingTombs bounds the tombstone backlog; beyond it oldest deletions
// simply risk (harmless, byte-identical) resurrection on reopen.
const maxPendingTombs = 16384

func newColdTier(storeDir string, fsys FS) *coldTier {
	return &coldTier{
		dir:          filepath.Join(storeDir, coldDir),
		fsys:         fsys,
		segs:         make(map[uint64]*segment),
		index:        make(map[string]coldRef),
		pendingTombs: make(map[string]struct{}),
	}
}

func (c *coldTier) segPath(id uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("seg-%08d%s", id, segSuffix))
}

// open loads every resident segment: reap stale compaction temps, parse
// each segment's footer index (falling back to a salvage scan on torn or
// corrupted footers, and to quarantine when even the header is gone), then
// replay records in segment order so the newest record or tombstone for a
// key wins.
func (c *coldTier) open() error {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // no cold tier yet; created on first segment write
		}
		return err
	}
	// A seg-*.tmp is a compactor that died before rename; its batch is
	// still in the hot tier (or recomputable).
	c.reaped = reapTemps(c.dir, ents, segTempPattern)
	var ids []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), segSuffix), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c.openSegment(id)
		if id >= c.nextID {
			c.nextID = id + 1
		}
	}
	return nil
}

// openSegment loads one segment's index, salvaging or quarantining on
// damage, and replays its records into the tier index.
func (c *coldTier) openSegment(id uint64) {
	path := c.segPath(id)
	info, err := c.fsys.Stat(path)
	if err != nil {
		return
	}
	size := info.Size()
	recs, err := parseSegmentIndex(size, func(off, n int64) ([]byte, error) {
		return c.fsys.ReadRange(path, off, n)
	})
	if err != nil {
		// Torn write or index corruption: salvage the valid record prefix.
		b, rerr := c.fsys.ReadFile(path)
		if rerr == nil {
			recs = scanSegment(b)
		}
		if len(recs) == 0 {
			// Nothing recoverable — preserve the evidence out of band.
			if q, err := quarantinePath(filepath.Dir(c.dir), path, -1); err == nil && c.fsys.Rename(path, q) == nil {
				c.quarantined++
			}
			return
		}
		c.salvaged++
	}
	c.indexLocked(id, size, recs)
}

// indexLocked enters segment id, size bytes on disk, and replays its
// records into the tier index. Caller holds mu (or is single-threaded
// during open).
func (c *coldTier) indexLocked(id uint64, size int64, recs []segRecord) {
	c.segs[id] = &segment{size: size, dataBytes: max(size-segHeaderSize-segTrailerSize, 0)}
	for _, rec := range recs {
		c.replayLocked(id, rec)
	}
}

// replayLocked applies one record in replay order: a tombstone kills the
// key's live record, a value record supersedes any older one. Caller holds
// mu (or is single-threaded during open).
func (c *coldTier) replayLocked(id uint64, rec segRecord) {
	if prev, ok := c.index[rec.key]; ok {
		c.killLocked(prev)
	}
	if rec.tombstone() {
		return
	}
	// A value record supersedes any deletion queued before it — without
	// this, a key deleted and then re-migrated would get a tombstone written
	// after its new record and be killed on the next replay.
	delete(c.pendingTombs, rec.key)
	c.index[rec.key] = coldRef{segID: id, rec: rec}
	if seg := c.segs[id]; seg != nil {
		seg.liveBytes += rec.diskSize() + idxEntrySize
	}
}

// killLocked drops ref's record from the index; its bytes turn dead in
// their segment.
func (c *coldTier) killLocked(ref coldRef) {
	delete(c.index, ref.rec.key)
	if seg := c.segs[ref.segID]; seg != nil {
		seg.liveBytes -= ref.rec.diskSize() + idxEntrySize
	}
}

// lookup snapshots a key's ref under the lock.
func (c *coldTier) lookup(key string) (coldRef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.index[key]
	return ref, ok
}

// Get reads key's live record.
func (c *coldTier) Get(key string) ([]byte, error) {
	ref, ok := c.lookup(key)
	if !ok {
		return nil, ErrNotFound
	}
	payload, _, err := c.read(ref)
	return payload, err
}

// read reads ref's record through the FS seam and verifies it against the
// index entry and its CRC. An I/O failure is ErrNotFound and leaves the
// record live: the next read may succeed. A record that fails verification
// is ErrCorrupt and is retired — dead-marked, so a recompute lands cleanly
// — unless the index has moved on from ref (a concurrent rewrite re-homed
// the key). bad holds the bytes read when this call retired the record.
func (c *coldTier) read(ref coldRef) (payload, bad []byte, err error) {
	raw, err := c.fsys.ReadRange(c.segPath(ref.segID), ref.rec.off, ref.rec.diskSize())
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrNotFound, err)
	}
	if payload, err = decodeRecord(ref.rec, raw); err == nil {
		return payload, nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.index[ref.rec.key]; !ok || cur != ref {
		return nil, nil, ErrCorrupt
	}
	c.killLocked(ref)
	return nil, raw, ErrCorrupt
}

// PutBatch packs entries (plus any pending tombstones) into one new
// segment, stages it in a temp file, renames it into place, and verifies
// the installed footer before indexing it. A batch that fails to write or
// verify installs nothing — the caller's source copies are still live, so
// a failed compaction loses no data.
func (c *coldTier) PutBatch(entries []segEntry) error {
	if len(entries) == 0 {
		return nil
	}
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	// Tombstones ride along in front of the batch (replay is offset-ordered,
	// so a record later in this segment supersedes its own tombstone).
	inBatch := make(map[string]bool, len(entries))
	for _, e := range entries {
		inBatch[e.key] = true
	}
	tombs := make([]segEntry, 0, len(c.pendingTombs))
	for key := range c.pendingTombs {
		if !inBatch[key] {
			tombs = append(tombs, segEntry{key: key, tomb: true})
		}
	}
	sort.Slice(tombs, func(i, j int) bool { return tombs[i].key < tombs[j].key })
	c.mu.Unlock()

	img, recs, err := encodeSegment(append(tombs, entries...))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	tmp, err := c.fsys.WriteSegment(c.dir, img)
	if err != nil {
		return err
	}
	path := c.segPath(id)
	if err := c.fsys.Rename(tmp, path); err != nil {
		c.fsys.Remove(tmp)
		return err
	}
	// Verify-after-write: re-read the installed footer through the FS seam.
	// A torn write (crash, injected fault) is detected here, the damaged
	// segment removed, and the batch reported failed while its source
	// entries are still safely resident in the hot tier.
	info, err := c.fsys.Stat(path)
	if err == nil {
		_, err = parseSegmentIndex(info.Size(), func(off, n int64) ([]byte, error) {
			return c.fsys.ReadRange(path, off, n)
		})
	}
	if err != nil {
		c.fsys.Remove(path)
		return fmt.Errorf("store: segment %d failed post-write verification: %w", id, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.indexLocked(id, info.Size(), recs)
	for _, t := range tombs {
		delete(c.pendingTombs, t.key) // now durable in this segment
	}
	return nil
}

// Delete dead-marks the key's record and queues a durable tombstone for
// the next segment write.
func (c *coldTier) Delete(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.index[key]
	if !ok {
		return false
	}
	c.killLocked(ref)
	if len(c.pendingTombs) < maxPendingTombs {
		c.pendingTombs[key] = struct{}{}
	}
	return true
}

// Contains reports whether key has a live record.
func (c *coldTier) Contains(key string) bool {
	_, ok := c.lookup(key)
	return ok
}

// Stats snapshots the tier's occupancy.
func (c *coldTier) Stats() TierStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := TierStats{Entries: len(c.index), Files: len(c.segs)}
	for _, seg := range c.segs {
		st.DiskBytes += seg.size
		st.Bytes += seg.liveBytes
		st.DeadBytes += seg.dataBytes - seg.liveBytes
	}
	return st
}

// liveRefs snapshots segment seg's live records, oldest offset first.
func (c *coldTier) liveRefs(segID uint64) []coldRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []coldRef
	for _, ref := range c.index {
		if ref.segID == segID {
			out = append(out, ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rec.off < out[j].rec.off })
	return out
}

// sparseSegments returns ids of segments whose live fraction of the record
// region is below frac (fully-dead segments included), sparsest first.
func (c *coldTier) sparseSegments(frac float64) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	type cand struct {
		id   uint64
		live float64
	}
	var cands []cand
	for id, seg := range c.segs {
		if seg.dataBytes <= 0 {
			cands = append(cands, cand{id, 0})
			continue
		}
		lf := float64(seg.liveBytes) / float64(seg.dataBytes)
		if lf < frac {
			cands = append(cands, cand{id, lf})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].live != cands[j].live {
			return cands[i].live < cands[j].live
		}
		return cands[i].id < cands[j].id
	})
	ids := make([]uint64, len(cands))
	for i, cd := range cands {
		ids[i] = cd.id
	}
	return ids
}

// oldestSegment returns the lowest-id resident segment, ok=false when the
// tier is empty.
func (c *coldTier) oldestSegment() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var min uint64
	found := false
	for id := range c.segs {
		if !found || id < min {
			min, found = id, true
		}
	}
	return min, found
}

// dropSegment evicts one whole segment: every live record in it is evicted
// (recomputable on demand), the file removed. Returns how many live
// entries were evicted.
func (c *coldTier) dropSegment(id uint64) (evicted int) {
	c.mu.Lock()
	if _, ok := c.segs[id]; !ok {
		c.mu.Unlock()
		return 0
	}
	for key, ref := range c.index {
		if ref.segID == id {
			delete(c.index, key)
			// No tombstone: the record's only copy dies with the file.
			delete(c.pendingTombs, key)
			evicted++
		}
	}
	delete(c.segs, id)
	c.mu.Unlock()
	c.fsys.Remove(c.segPath(id))
	return evicted
}

// rewrite compacts one segment: its live records are re-read, re-packed
// into a fresh segment via PutBatch, and the old file removed. A fully-dead
// segment is simply dropped. Records that fail their read or CRC during the
// rewrite are skipped — the damage stays behind in the old segment's
// grave, not copied forward.
//
// Concurrency: a key deleted (e.g. promoted to hot) between the snapshot
// and the install is briefly resurrected by the replay — harmless, because
// values are content-addressed and immutable, and the hot copy shadows it.
func (c *coldTier) rewrite(id uint64) error {
	refs := c.liveRefs(id)
	entries := make([]segEntry, 0, len(refs))
	for _, ref := range refs {
		if payload, _, err := c.read(ref); err == nil {
			entries = append(entries, segEntry{key: ref.rec.key, value: payload})
		}
	}
	if len(entries) > 0 {
		if err := c.PutBatch(entries); err != nil {
			return err
		}
	}
	c.dropSegment(id)
	return nil
}
