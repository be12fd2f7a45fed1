package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// magic heads every hot-tier entry file; the trailing byte versions the
// layout. This is the original one-file-per-key format, which is also why
// pre-engine stores open transparently: their directory IS a hot tier.
var magic = []byte("NCRS\x01")

// headerSize = magic + 8-byte big-endian payload length + 32-byte SHA-256.
const headerSize = 5 + 8 + sha256.Size

const suffix = ".res"

// memBudget bounds the payload bytes of the hot tier's table of remembered
// values. It holds about 128 of the ~8 KB results of figure specs at scale
// 0.06, more than the whole Figure 6 matrix (48); an 8 MiB table cost the
// rebalance benchmark's joiner 14% more peak memory for no more hits.
const memBudget = 1 << 20

// hotTier is the engine's recency tier: one checksummed file per key,
// written via temp-file-then-rename, mtime doubling as the LRU clock. It is
// byte-compatible with the pre-engine store layout.
//
// A serving get remembers the payload it read and verified, so a repeat
// costs a map lookup and the mtime refresh instead of a read and a SHA-256.
// A value needs no invalidation protocol, since a key's value can only ever
// be one byte string; the table forgets a key wherever its file is
// replaced or removed, and drops arbitrary entries to stay under memBudget.
type hotTier struct {
	dir    string
	prefix string // dir as filepath.Join cleans it, ready for a file name
	fsys   FS

	mu    sync.Mutex
	size  int64
	count int

	mem      map[string][]byte // key → remembered payload, capacity clipped
	memBytes int
	// gen counts the replacements and removals of entry files. A read
	// that overlapped one neither remembers nor drops what it read.
	gen uint64
}

func newHotTier(dir string, fsys FS) *hotTier {
	// Joining a one-byte name and cutting it off again leaves the prefix
	// that filepath.Join gives every single-element name in dir.
	prefix := filepath.Join(dir, "x")
	return &hotTier{dir: dir, prefix: prefix[:len(prefix)-1], fsys: fsys}
}

// path is filepath.Join(h.dir, key+suffix), without cleaning h.dir on every
// call.
func (h *hotTier) path(key string) string { return h.prefix + key + suffix }

// hotFile is one hot-tier entry in a listing of the store root.
type hotFile struct {
	key string
	os.DirEntry
}

// list reads the store root once and returns the hot tier's entries in
// key order, then the rest of the listing. An entry is exactly a regular
// file named <valid key>.res: quarantine/, cold/, temps and stray files
// are never counted, listed or evicted. A failed read lists what it got.
func (h *hotTier) list() (files []hotFile, others []os.DirEntry) {
	ents, _ := os.ReadDir(h.dir)
	files = make([]hotFile, 0, len(ents))
	for _, e := range ents {
		if key, ok := strings.CutSuffix(e.Name(), suffix); ok && e.Type().IsRegular() && ValidKey(key) {
			files = append(files, hotFile{key, e})
		} else {
			others = append(others, e)
		}
	}
	return files, others
}

// scan counts resident entries, returning them, and reaps stale put-*
// temps.
func (h *hotTier) scan() (files []hotFile, reaped int) {
	files, others := h.list()
	h.mu.Lock()
	for _, f := range files {
		if info, err := f.Info(); err == nil {
			h.size += info.Size()
			h.count++
		}
	}
	h.mu.Unlock()
	return files, reapTemps(h.dir, others, tempPattern)
}

// get returns the entry's payload, and whether the table answered without
// a file read. A serving get (serve) refreshes the entry's mtime, the LRU
// clock, and answers a repeat from the table, its Chtimes doubling as the
// check that the file still exists. Peek and compaction's read do neither
// and never fill the table. A corrupt entry is deleted (so it cannot
// shadow the recompute) unless the tier changed during the read, and
// reported as ErrCorrupt; an absent or unreadable one as ErrNotFound.
func (h *hotTier) get(key string, serve bool) (payload []byte, remembered bool, err error) {
	path := h.path(key)
	h.mu.Lock()
	if v, ok := h.mem[key]; ok && serve {
		if h.touchLocked(path) == nil {
			h.mu.Unlock()
			return v, true, nil
		}
		h.forgetLocked(key)
	}
	gen := h.gen
	h.mu.Unlock()

	b, err := h.fsys.ReadFile(path)
	if err != nil {
		return nil, false, ErrNotFound
	}
	payload, ok := decode(b)
	h.mu.Lock()
	defer h.mu.Unlock()
	if !ok {
		if h.gen == gen {
			h.dropLocked(key)
		}
		return nil, false, ErrCorrupt
	}
	if serve && h.touchLocked(path) == nil && h.gen == gen {
		h.rememberLocked(key, payload)
	}
	return payload, false, nil
}

// touchLocked refreshes the LRU clock. It runs under mu so the mtime write
// is serialized with put's rename and evict's scan.
func (h *hotTier) touchLocked(path string) error {
	now := time.Now()
	return h.fsys.Chtimes(path, now, now)
}

// rememberLocked adds key's verified payload to the table, first dropping
// arbitrary entries until it fits under memBudget.
func (h *hotTier) rememberLocked(key string, p []byte) {
	if _, ok := h.mem[key]; ok || len(p) > memBudget {
		return
	}
	for k, v := range h.mem {
		if h.memBytes+len(p) <= memBudget {
			break
		}
		delete(h.mem, k)
		h.memBytes -= len(v)
	}
	if h.mem == nil {
		h.mem = make(map[string][]byte)
	}
	h.mem[key] = p[:len(p):len(p)]
	h.memBytes += len(p)
}

// forgetLocked records that key's entry file is being replaced or removed:
// the table forgets its value, and reads in flight neither remember nor
// drop what they read.
func (h *hotTier) forgetLocked(key string) {
	h.gen++
	if v, ok := h.mem[key]; ok {
		delete(h.mem, key)
		h.memBytes -= len(v)
	}
}

// put stores value under key atomically: staged in a temp file and renamed
// into place, so readers (and crashes) observe either nothing or the
// complete checksummed entry.
func (h *hotTier) put(key string, value []byte) error {
	enc := encode(value)
	tmp, err := h.fsys.WriteTemp(h.dir, enc)
	if err != nil {
		return err
	}
	path := h.path(key)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.forgetLocked(key)
	if prev, err := h.fsys.Stat(path); err == nil {
		h.size -= prev.Size()
		h.count--
	}
	if err := h.fsys.Rename(tmp, path); err != nil {
		// The previous entry may or may not still exist; restat so the
		// accounting matches whatever is actually on disk.
		if prev, serr := h.fsys.Stat(path); serr == nil {
			h.size += prev.Size()
			h.count++
		}
		h.fsys.Remove(tmp)
		return err
	}
	// The temp file may have landed short (crash or injected short write);
	// account what is on disk, not what we asked for. Reads catch the
	// corruption via the checksum header.
	n := int64(len(enc))
	if info, err := h.fsys.Stat(path); err == nil {
		n = info.Size()
	}
	h.size += n
	h.count++
	return nil
}

// Delete removes key's entry, reporting whether one was removed.
func (h *hotTier) Delete(key string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropLocked(key)
}

// dropLocked removes key's entry file with accounting. It re-stats under mu
// — never trusting sizes observed outside the lock — so a concurrent put
// that replaced the file between a read and now cannot make size/count
// drift.
func (h *hotTier) dropLocked(key string) bool {
	h.forgetLocked(key)
	path := h.path(key)
	info, err := h.fsys.Stat(path)
	if err != nil {
		return false // already removed (or replaced and removed) by someone else
	}
	if h.fsys.Remove(path) != nil {
		return false
	}
	h.size -= info.Size()
	h.count--
	return true
}

// Contains reports whether key has an entry file.
func (h *hotTier) Contains(key string) bool {
	_, err := h.fsys.Stat(h.path(key))
	return err == nil
}

// Stats snapshots the tier's occupancy.
func (h *hotTier) Stats() TierStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return TierStats{Entries: h.count, Bytes: h.size, DiskBytes: h.size, Files: h.count}
}

// hotEntry is one resident entry observed by a directory scan.
type hotEntry struct {
	key   string
	size  int64
	mtime time.Time
}

// scanLRU lists resident entries oldest-mtime first.
func (h *hotTier) scanLRU() []hotEntry {
	files, _ := h.list()
	all := make([]hotEntry, 0, len(files))
	for _, f := range files {
		if info, err := f.Info(); err == nil {
			all = append(all, hotEntry{f.key, info.Size(), info.ModTime()})
		}
	}
	// Keys arrive sorted, so the stable sort breaks mtime ties by key.
	slices.SortStableFunc(all, func(a, b hotEntry) int { return a.mtime.Compare(b.mtime) })
	return all
}

// evict removes oldest-mtime entries until the tier's resident size is at
// most target. keep (the key just written, if any) is never evicted.
func (h *hotTier) evict(target int64, keep string) (evicted int) {
	h.mu.Lock()
	over := h.size > target
	h.mu.Unlock()
	if !over {
		return 0
	}
	for _, e := range h.scanLRU() {
		h.mu.Lock()
		if h.size <= target {
			h.mu.Unlock()
			return evicted
		}
		if e.key != keep && h.dropLocked(e.key) {
			evicted++
		}
		h.mu.Unlock()
	}
	return evicted
}

// victims picks migration candidates for the compactor, oldest first: every
// entry whose mtime predates cutoff, plus — when maxResident > 0 — enough
// additional oldest entries to bring the tier under maxResident bytes.
func (h *hotTier) victims(cutoff time.Time, maxResident int64) []hotEntry {
	all := h.scanLRU()
	var resident int64
	for _, e := range all {
		resident += e.size
	}
	var out []hotEntry
	for _, e := range all {
		overAge := e.mtime.Before(cutoff)
		overBytes := maxResident > 0 && resident > maxResident
		if !overAge && !overBytes {
			break // entries are oldest-first; the rest are younger and within budget
		}
		out = append(out, e)
		resident -= e.size
	}
	return out
}

// quarantine validates key's entry and, if it is corrupt, moves it into
// quarantineDir, preserving the bytes for forensics. The first read runs
// unlocked; a failure is re-checked under mu (serialized with put's
// rename), so a concurrent rewrite racing the read cannot get a fresh
// valid entry quarantined.
func (h *hotTier) quarantine(key string) bool {
	path := h.path(key)
	if b, err := h.fsys.ReadFile(path); err == nil {
		if _, ok := decode(b); ok {
			return false
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	b, err := h.fsys.ReadFile(path)
	if err != nil {
		return false // vanished (evicted or dropped) — nothing to quarantine
	}
	if _, ok := decode(b); ok {
		return false // rewritten healthy while we were looking
	}
	info, err := h.fsys.Stat(path)
	if err != nil {
		return false
	}
	q, err := quarantinePath(h.dir, path, -1)
	if err != nil || h.fsys.Rename(path, q) != nil {
		return false
	}
	h.forgetLocked(key)
	h.size -= info.Size()
	h.count--
	return true
}

func encode(payload []byte) []byte {
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, magic...)
	var lenb [8]byte
	binary.BigEndian.PutUint64(lenb[:], uint64(len(payload)))
	out = append(out, lenb[:]...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// decode validates the header and checksum; any mismatch returns ok=false.
func decode(b []byte) ([]byte, bool) {
	if len(b) < headerSize || !bytes.Equal(b[:len(magic)], magic) {
		return nil, false
	}
	n := binary.BigEndian.Uint64(b[len(magic) : len(magic)+8])
	payload := b[headerSize:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	var want [sha256.Size]byte
	copy(want[:], b[len(magic)+8:headerSize])
	if sha256.Sum256(payload) != want {
		return nil, false
	}
	return payload, true
}
