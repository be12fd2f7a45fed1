package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func keyOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf("spec-a")
	val := []byte(`{"Cycles":12345}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, val)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenKeepsEntries(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	key := keyOf("persist")
	if err := s.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key); !ok || string(got) != "value" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
}

// recompute mimics the service's miss path: on a failed Get, rebuild the
// value and Put it back, then require a clean hit.
func recompute(t *testing.T, s *Store, key string, val []byte) {
	t.Helper()
	if got, ok := s.Get(key); ok {
		t.Fatalf("corrupt entry served as a hit: %q", got)
	}
	if err := s.Put(key, val); err != nil {
		t.Fatalf("recompute Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("after recompute Get = %q, %v", got, ok)
	}
}

func TestCorruptionTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	key := keyOf("truncate-me")
	val := []byte("a result payload that is long enough to truncate meaningfully")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+suffix)
	for _, keep := range []int64{0, 3, headerSize - 1, headerSize + 5} {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, keep); err != nil {
			t.Fatal(err)
		}
		recompute(t, s, key, val)
	}
	if st := s.Stats(); st.Corrupt == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
}

func TestCorruptionBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	key := keyOf("flip-me")
	val := []byte("deterministic simulation result bytes")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+suffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every region: magic, length, checksum, payload.
	for _, off := range []int{0, len(magic) + 2, len(magic) + 10, headerSize + 4} {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		recompute(t, s, key, val)
	}
}

func TestCorruptEntryIsDeleted(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	key := keyOf("delete-corrupt")
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+suffix)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("garbage served as hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not deleted: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("x"), 100)
	entryBytes := int64(headerSize + len(val))
	s, _ := Open(dir, 3*entryBytes)
	keys := make([]string, 4)
	base := time.Now().Add(-time.Hour)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("entry-%d", i))
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
		// mtimes decide LRU order; set them explicitly so the test does not
		// depend on filesystem timestamp granularity.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, keys[i]+suffix), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Store holds 4 entries but fits 3: the next Put must evict entry-0,
	// the least recently used.
	k := keyOf("entry-new")
	if err := s.Put(k, val); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, want := range []string{keys[2], keys[3], k} {
		if _, ok := s.Get(want); !ok {
			t.Fatalf("recent entry %s evicted", want)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions counted: %+v", st)
	}
	if st.Bytes > 3*entryBytes {
		t.Fatalf("store over budget: %+v", st)
	}
}

func TestGetRefreshesLRU(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("y"), 50)
	entryBytes := int64(headerSize + len(val))
	s, _ := Open(dir, 2*entryBytes)
	old, hot := keyOf("old"), keyOf("hot")
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{hot, old} {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, k+suffix), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Touch hot: its mtime moves to now, making old the eviction victim.
	if _, ok := s.Get(hot); !ok {
		t.Fatal("miss on hot entry")
	}
	if err := s.Put(keyOf("third"), val); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(hot); !ok {
		t.Fatal("recently-read entry evicted")
	}
	if _, ok := s.Get(old); ok {
		t.Fatal("stale entry survived")
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	for _, k := range []string{"", "../../etc/passwd", "short", keyOf("x")[:63] + "Z"} {
		if err := s.Put(k, []byte("v")); err == nil {
			t.Fatalf("Put(%q) accepted", k)
		}
		if _, ok := s.Get(k); ok {
			t.Fatalf("Get(%q) hit", k)
		}
	}
}

// TestOpenReapsStaleTemps: put-* files older than tempMaxAge are crash
// leftovers — Open must delete them; fresh temps (a live writer's staging
// file) and real entries must survive.
func TestOpenReapsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	key := keyOf("survivor")
	if err := s.Put(key, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "put-123456")
	fresh := filepath.Join(dir, "put-789abc")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp not reaped: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp reaped: %v", err)
	}
	if got, ok := s2.Get(key); !ok || string(got) != "kept" {
		t.Fatalf("entry lost across reap: %q, %v", got, ok)
	}
	if st := s2.Stats(); st.ReapedTemps != 1 {
		t.Fatalf("ReapedTemps = %d, want 1", st.ReapedTemps)
	}
}

// TestStrayFileNotCounted: a file in the store root that merely ends in
// .res is not an entry. Eviction can never remove it, so Open must not
// count it against the budget, or every Put would evict real entries to
// make room for it.
func TestStrayFileNotCounted(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, "backup.res")
	if err := os.WriteFile(stray, bytes.Repeat([]byte("B"), 10_000), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.HotEntries != 0 || st.HotBytes != 0 {
		t.Fatalf("Open counted the stray file: %d entries, %d bytes", st.HotEntries, st.HotBytes)
	}
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("beside-stray-%d", i))
		if err := s.Put(keys[i], []byte(fmt.Sprintf("small value %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evictions != 0 || st.HotEntries != len(keys) {
		t.Fatalf("after %d small Puts: %d evictions, %d hot entries", len(keys), st.Evictions, st.HotEntries)
	}
	slices.Sort(keys)
	if got := s.Keys(); !slices.Equal(got, keys) {
		t.Fatalf("Keys() = %d keys, want the %d put", len(got), len(keys))
	}
	for _, k := range keys {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %s lost", k)
		}
	}
	if info, err := os.Stat(stray); err != nil || info.Size() != 10_000 {
		t.Fatalf("stray file disturbed: %v", err)
	}
}

// TestDecodeBoundaries truncates an encoded entry at every offset through
// the header and into the payload, and bit-flips every byte position: only
// the intact encoding may decode.
func TestDecodeBoundaries(t *testing.T) {
	payload := []byte("boundary-test payload")
	enc := encode(payload)
	if got, ok := decode(enc); !ok || !bytes.Equal(got, payload) {
		t.Fatal("intact encoding failed to decode")
	}
	for n := 0; n < len(enc); n++ {
		if _, ok := decode(enc[:n]); ok {
			t.Fatalf("truncation to %d bytes decoded (header is %d)", n, headerSize)
		}
	}
	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x01
		if _, ok := decode(mut); ok {
			t.Fatalf("bit flip at offset %d decoded", off)
		}
	}
	// Appended garbage must fail too (length header mismatch).
	if _, ok := decode(append(append([]byte(nil), enc...), 'x')); ok {
		t.Fatal("trailing garbage decoded")
	}
	// Zero-length payloads round-trip.
	empty := encode(nil)
	if got, ok := decode(empty); !ok || len(got) != 0 {
		t.Fatal("empty payload failed to round-trip")
	}
}

// rescan totals the hot-tier entry files actually on disk, for accounting
// checks. Temp files, quarantine/, and cold/ are excluded — exactly what
// the LRU budget must exclude.
func rescan(t *testing.T, dir string) (size int64, count int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
		count++
	}
	return size, count
}

// rescanCold totals the installed segment files on disk.
func rescanCold(t *testing.T, dir string) (size int64, count int) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, coldDir))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0
		}
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
		count++
	}
	return size, count
}

// checkAccounting asserts both tiers' accounting matches a fresh rescan of
// the directory: hot bytes/entries against the per-key files, cold disk
// bytes/segment count against the segment files.
func checkAccounting(t *testing.T, s *Store) {
	t.Helper()
	st := s.Stats()
	if st.HotBytes < 0 || st.HotEntries < 0 || st.ColdBytes < 0 {
		t.Fatalf("accounting went negative: %+v", st)
	}
	hotSize, hotCount := rescan(t, s.Dir())
	if st.HotBytes != hotSize || st.HotEntries != hotCount {
		t.Fatalf("hot accounting drifted: store says size=%d count=%d, disk has size=%d count=%d",
			st.HotBytes, st.HotEntries, hotSize, hotCount)
	}
	coldSize, segCount := rescanCold(t, s.Dir())
	if coldDisk := st.Bytes - st.HotBytes; coldDisk != coldSize || st.Segments != segCount {
		t.Fatalf("cold accounting drifted: store says disk=%d segments=%d, disk has size=%d segments=%d",
			coldDisk, st.Segments, coldSize, segCount)
	}
}

// TestConcurrentGetPutEviction hammers a small LRU-bounded store from
// concurrent readers and writers: eviction, LRU refresh, and rewrites must
// keep size/count exactly equal to a fresh rescan of the directory.
func TestConcurrentGetPutEviction(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("v"), 200)
	entryBytes := int64(headerSize + len(val))
	s, _ := Open(dir, 6*entryBytes) // deep enough to hold some, shallow enough to evict constantly
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("concurrent-%d", i))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := keys[(g*7+i)%len(keys)]
				if i%3 == 0 {
					if err := s.Put(k, val); err != nil {
						t.Errorf("Put(%s): %v", k, err)
						return
					}
				} else if got, ok := s.Get(k); ok && !bytes.Equal(got, val) {
					t.Errorf("Get(%s) returned wrong bytes", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkAccounting(t, s)
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions under a 6-entry bound with 16 keys: %+v", st)
	}
}

// TestConcurrentCorruptDrop targets the drop race the unlocked remove path
// used to lose: a Get that found a corrupt entry would remove the file and
// subtract the *previously read* byte count, even when a concurrent Put had
// just replaced the file with a different-sized valid entry. Alternating
// value sizes per key makes that stale-size subtraction visible; the fixed
// path restats under mu, so accounting must end exactly consistent.
func TestConcurrentCorruptDrop(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	vals := [][]byte{bytes.Repeat([]byte("s"), 50), bytes.Repeat([]byte("L"), 3000)}
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("droprace-%d", i))
		if err := s.Put(keys[i], vals[0]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := keys[(g+i)%len(keys)]
				switch i % 3 {
				case 0:
					if err := s.Put(k, vals[(g+i)%2]); err != nil {
						t.Errorf("Put(%s): %v", k, err)
						return
					}
				case 1:
					// Flip a payload byte in place, never creating the file
					// (no O_CREATE): a Get must drop it with restat-accurate
					// accounting even while Puts race the removal.
					f, err := os.OpenFile(filepath.Join(dir, k+suffix), os.O_WRONLY, 0)
					if err == nil {
						f.WriteAt([]byte{0xff}, headerSize)
						f.Close()
					}
					s.Get(k)
				case 2:
					s.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()

	// Drop any still-corrupt leftovers so the rescan sees a settled store.
	for _, k := range keys {
		s.Get(k)
	}
	checkAccounting(t, s)
	if st := s.Stats(); st.Corrupt == 0 {
		t.Fatalf("corrupters never tripped a drop: %+v", st)
	}
}
