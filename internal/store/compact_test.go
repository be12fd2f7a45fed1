package store

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netcache/internal/faults"
)

// coldOpts is the test configuration that makes every resident hot entry a
// migration victim on the next Compact: any entry older than a nanosecond
// ages out.
func coldOpts() Options {
	return Options{ColdAge: time.Nanosecond}
}

// settle puts mtimes safely in the past so ColdAge=1ns comparisons cannot
// race the filesystem's timestamp granularity.
func settle() { time.Sleep(20 * time.Millisecond) }

func TestCompactMigratesAndServesBothTiers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 24; i++ {
		key := keyOf(fmt.Sprintf("migrate-%d", i))
		vals[key] = bytes.Repeat([]byte{byte('a' + i%26)}, 120+i*11)
		if err := s.Put(key, vals[key]); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	migrated, _ := s.Compact()
	if migrated != len(vals) {
		t.Fatalf("migrated %d entries, want %d", migrated, len(vals))
	}
	st := s.Stats()
	if st.HotEntries != 0 || st.ColdEntries != len(vals) || st.Segments == 0 {
		t.Fatalf("after compact: %+v", st)
	}
	checkAccounting(t, s)

	// Every value must come back byte-identical from the cold tier, and a
	// cold hit promotes the entry back to hot.
	for key, want := range vals {
		got, ok := s.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("cold Get(%s) = %v, %v", key, ok, got)
		}
		if !s.hot.Contains(key) {
			t.Fatalf("cold hit did not promote %s", key)
		}
		if s.cold.Contains(key) {
			t.Fatalf("promotion left a live cold record for %s", key)
		}
	}
	st = s.Stats()
	if st.ColdHits != uint64(len(vals)) || st.Promotions != uint64(len(vals)) {
		t.Fatalf("promotion stats: %+v", st)
	}
	// A second round trip serves from hot.
	for key, want := range vals {
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) {
			t.Fatalf("promoted Get(%s) failed", key)
		}
	}
	if st = s.Stats(); st.HotHits != uint64(len(vals)) {
		t.Fatalf("promoted entries not served hot: %+v", st)
	}
	checkAccounting(t, s)
}

func TestCompactSegmentTargetBoundsBatches(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		// Entries a quarter of the target each: 4 per segment. Compressed
		// sizes are irrelevant: batching is by uncompressed bytes.
		if err := s.Put(keyOf(fmt.Sprintf("batch-%d", i)), bytes.Repeat([]byte{byte(i)}, segmentTarget/4)); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	s.Compact()
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("16 entries of a quarter segment target each packed into %d segments", st.Segments)
	}
	if st.ColdEntries != 16 {
		t.Fatalf("cold entries = %d, want 16", st.ColdEntries)
	}
}

// TestOldStoreMigratesTransparently: a pre-engine store directory — bare
// per-key entry files, no cold/, written by an older binary — must open,
// serve, and migrate into the tiered layout without any conversion step.
func TestOldStoreMigratesTransparently(t *testing.T) {
	dir := t.TempDir()
	vals := map[string][]byte{}
	for i := 0; i < 12; i++ {
		key := keyOf(fmt.Sprintf("legacy-%d", i))
		vals[key] = []byte(fmt.Sprintf("legacy result %d", i))
		// Exactly what the pre-engine store wrote: encode() bytes at <key>.res.
		if err := os.WriteFile(filepath.Join(dir, key+suffix), encode(vals[key]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.HotEntries != len(vals) || st.ColdEntries != 0 {
		t.Fatalf("legacy open: %+v", st)
	}
	settle()
	if migrated, _ := s.Compact(); migrated != len(vals) {
		t.Fatalf("legacy migration moved %d of %d", migrated, len(vals))
	}
	for key, want := range vals {
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) {
			t.Fatalf("legacy value %s lost in migration", key)
		}
	}
	// And the migrated layout reopens cleanly.
	s2, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range vals {
		if got, ok := s2.Get(key); !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopened migrated value %s wrong", key)
		}
	}
}

// TestCompatStoreServesSameBytes opens testdata/compat-store, a store
// directory written before the cold tier's codec stopped being a setting:
// two hot entries, a segment whose compressible records were stored raw
// (the old "none" codec), and a segment of deflated records that also
// carries a tombstone for a raw record. Every live key must serve its
// bytes, and the tombstoned one must stay gone.
func TestCompatStoreServesSameBytes(t *testing.T) {
	value := func(name string) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("result of %s; ", name)), 24)
	}
	dir, src := t.TempDir(), filepath.Join("testdata", "compat-store")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.HotEntries != 2 || st.ColdEntries != 4 || st.Segments != 2 || st.SalvagedSegments != 0 {
		t.Fatalf("compat store opened as %+v", st)
	}
	for name, deflated := range map[string]bool{"raw-1": false, "raw-2": false, "flate-1": true, "flate-2": true} {
		ref, ok := s.cold.lookup(keyOf(name))
		if !ok || (ref.rec.flags&recFlate != 0) != deflated {
			t.Fatalf("%s: cold record %v, flags %#x", name, ok, ref.rec.flags)
		}
	}
	for _, name := range []string{"hot-1", "hot-2", "raw-1", "raw-2", "flate-1", "flate-2"} {
		if got, ok := s.Get(keyOf(name)); !ok || !bytes.Equal(got, value(name)) {
			t.Fatalf("%s: Get = %q, %v", name, got, ok)
		}
	}
	if _, ok := s.Get(keyOf("deleted")); ok {
		t.Fatal("tombstoned key served")
	}
	checkAccounting(t, s)
}

// TestCrashMidCompactionRecovery simulates the two crash windows of a
// compaction — after staging the temp segment, and a torn installed
// segment — and requires open to reap the former and salvage the latter.
func TestCrashMidCompactionRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 10; i++ {
		key := keyOf(fmt.Sprintf("crash-%d", i))
		vals[key] = bytes.Repeat([]byte{byte('A' + i)}, 200)
		if err := s.Put(key, vals[key]); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	if migrated, _ := s.Compact(); migrated != len(vals) {
		t.Fatal("setup compaction incomplete")
	}

	// Crash window 1: a compactor died after WriteSegment, before Rename.
	stale := filepath.Join(dir, coldDir, "seg-01234567.tmp")
	if err := os.WriteFile(stale, []byte("half a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	// Crash window 2: the installed segment's tail (part of the index and
	// the whole trailer) never reached disk. The record region is intact.
	segs, err := filepath.Glob(filepath.Join(dir, coldDir, "seg-*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment installed: %v", err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-segTrailerSize-idxEntrySize/2); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.ReapedTemps == 0 {
		t.Fatalf("stale seg tmp not reaped: %+v", st)
	}
	if st.SalvagedSegments == 0 {
		t.Fatalf("torn segment not salvaged: %+v", st)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale seg tmp still on disk")
	}
	for key, want := range vals {
		if got, ok := s2.Get(key); !ok || !bytes.Equal(got, want) {
			t.Fatalf("value %s lost to the torn tail", key)
		}
	}
	checkAccounting(t, s2)
}

// TestCrashBetweenInstallAndHotDelete: a crash after the segment lands but
// before the hot files are deleted leaves keys in both tiers; open must
// collapse to one live copy.
func TestCrashBetweenInstallAndHotDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf("both-tiers")
	val := []byte("the one true value")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	settle()
	s.Compact()
	// Re-create the hot file as the pre-deletion crash state would have it.
	if err := os.WriteFile(filepath.Join(dir, key+suffix), encode(val), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !s2.hot.Contains(key) || s2.cold.Contains(key) {
		t.Fatalf("dup key not collapsed to hot: hot=%v cold=%v", s2.hot.Contains(key), s2.cold.Contains(key))
	}
	if got, ok := s2.Get(key); !ok || !bytes.Equal(got, val) {
		t.Fatal("collapsed key unreadable")
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("dup counted twice: %+v", st)
	}
}

// TestHopelessSegmentQuarantined: a segment whose header is destroyed
// salvages nothing and must be moved whole into quarantine/, never served,
// never counted.
func TestHopelessSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf("doomed")
	if err := s.Put(key, []byte("doomed value")); err != nil {
		t.Fatal(err)
	}
	settle()
	s.Compact()
	segs, _ := filepath.Glob(filepath.Join(dir, coldDir, "seg-*"+segSuffix))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, have %d", len(segs))
	}
	if err := os.WriteFile(segs[0], bytes.Repeat([]byte("X"), 64), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Quarantined == 0 || st.Entries != 0 || st.Segments != 0 {
		t.Fatalf("hopeless segment not quarantined: %+v", st)
	}
	if _, ok := s2.Get(key); ok {
		t.Fatal("served a value from a destroyed segment")
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir: %v, %d files", err, len(q))
	}
	// The miss is recomputable as usual.
	recompute(t, s2, key, []byte("doomed value"))
}

// TestTornSegmentWriteDetected: an injected torn segment write must fail
// the batch at install time — post-write verification — leaving every
// source entry resident in the hot tier.
func TestTornSegmentWriteDetected(t *testing.T) {
	inj := faults.New(42)
	inj.Set(faults.SegmentTorn, 1.0)
	opt := coldOpts()
	opt.FS = NewFaultFS(inj)
	dir := t.TempDir()
	s, err := OpenOptions(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 8; i++ {
		key := keyOf(fmt.Sprintf("torn-%d", i))
		vals[key] = bytes.Repeat([]byte{byte('t')}, 300)
		if err := s.Put(key, vals[key]); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	if migrated, _ := s.Compact(); migrated != 0 {
		t.Fatalf("torn write migrated %d entries", migrated)
	}
	st := s.Stats()
	if st.CompactErrors == 0 {
		t.Fatalf("torn write not counted: %+v", st)
	}
	if st.HotEntries != len(vals) || st.Segments != 0 {
		t.Fatalf("torn write lost data: %+v", st)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, coldDir, "seg-*"+segSuffix)); len(left) != 0 {
		t.Fatalf("damaged segment left installed: %v", left)
	}
	// Faults off: the same pass succeeds and the values survive intact.
	inj.Disable()
	if migrated, _ := s.Compact(); migrated != len(vals) {
		t.Fatalf("fault-free retry migrated %d of %d", migrated, len(vals))
	}
	for key, want := range vals {
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) {
			t.Fatalf("value %s wrong after retry", key)
		}
	}
	checkAccounting(t, s)
}

// TestSegmentRewriteReclaimsDeadSpace: deleting most of a segment's keys
// leaves dead space that a compaction rewrite reclaims, preserving the
// survivors byte-for-byte.
func TestSegmentRewriteReclaimsDeadSpace(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 10)
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('0' + i)}, 400) }
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("rewrite-%d", i))
		if err := s.Put(keys[i], val(i)); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	s.Compact()
	before := s.Stats()
	if before.Segments == 0 || before.ColdEntries != len(keys) {
		t.Fatalf("setup: %+v", before)
	}
	// Kill 8 of 10 via the tier seam (the engine path that dead-marks:
	// promotion, re-Put). Dead space piles up in place.
	for _, k := range keys[:8] {
		if !s.cold.Delete(k) {
			t.Fatalf("delete %s failed", k)
		}
	}
	mid := s.Stats()
	if mid.ColdDeadBytes == 0 {
		t.Fatalf("deletions left no dead space: %+v", mid)
	}
	if _, rewritten := s.Compact(); rewritten == 0 {
		t.Fatal("sparse segment not rewritten")
	}
	after := s.Stats()
	if after.Bytes >= mid.Bytes {
		t.Fatalf("rewrite reclaimed nothing: %d >= %d", after.Bytes, mid.Bytes)
	}
	if after.ColdEntries != 2 {
		t.Fatalf("survivors = %d, want 2", after.ColdEntries)
	}
	for i := 8; i < 10; i++ {
		if got, ok := s.Get(keys[i]); !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("survivor %d corrupted by rewrite", i)
		}
	}
	checkAccounting(t, s)
}

// TestTombstoneDurability: a deletion must survive reopen once a later
// segment write has carried its tombstone.
func TestTombstoneDurability(t *testing.T) {
	dir := t.TempDir()
	c := newColdTier(dir, osFS{})
	a, b, d := keyOf("tomb-a"), keyOf("tomb-b"), keyOf("tomb-c")
	if err := c.PutBatch([]segEntry{
		{key: a, value: []byte("value a")},
		{key: b, value: []byte("value b")},
	}); err != nil {
		t.Fatal(err)
	}
	if !c.Delete(a) {
		t.Fatal("delete a")
	}
	// The next batch carries a's tombstone.
	if err := c.PutBatch([]segEntry{{key: d, value: []byte("value c")}}); err != nil {
		t.Fatal(err)
	}
	c2 := newColdTier(dir, osFS{})
	if err := c2.open(); err != nil {
		t.Fatal(err)
	}
	if c2.Contains(a) {
		t.Fatal("deleted key resurrected across reopen")
	}
	for _, k := range []string{b, d} {
		if v, err := c2.Get(k); err != nil || len(v) == 0 {
			t.Fatalf("live key %s lost: %v", k, err)
		}
	}
}

// TestCrashMidPutBudget is the size-accounting regression test: a writer
// that crashes between staging and rename leaves a put-* temp, and the
// scrubber leaves quarantined bytes — neither may ever count against the
// LRU budget, and a reopen's accounting must match the on-disk reality of
// countable files exactly.
func TestCrashMidPutBudget(t *testing.T) {
	dir := t.TempDir()
	val := bytes.Repeat([]byte("b"), 256)
	entryBytes := int64(headerSize + len(val))
	s, err := Open(dir, 100*entryBytes)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("budget-%d", i))
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}

	// Crash mid-put: the staged temp survives, large enough to matter.
	tmp := filepath.Join(dir, "put-crashed123")
	if err := os.WriteFile(tmp, bytes.Repeat([]byte("T"), 10_000), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	// Quarantined forensics from an earlier scrub.
	qdir := filepath.Join(dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(qdir, keyOf("old-corpse")+suffix), bytes.Repeat([]byte("Q"), 50_000), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 100*entryBytes)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.ReapedTemps != 1 {
		t.Fatalf("crashed temp not reaped: %+v", st)
	}
	wantSize, wantCount := rescan(t, dir)
	if st.HotBytes != wantSize || st.HotEntries != wantCount {
		t.Fatalf("budget accounting = %d bytes / %d entries, disk has %d / %d",
			st.HotBytes, st.HotEntries, wantSize, wantCount)
	}
	if st.HotBytes != int64(len(keys))*entryBytes {
		t.Fatalf("temps or quarantine leaked into the budget: %d != %d", st.HotBytes, int64(len(keys))*entryBytes)
	}
	// The quarantined file is preserved, uncounted, unevicted.
	if _, err := os.Stat(filepath.Join(qdir, keyOf("old-corpse")+suffix)); err != nil {
		t.Fatalf("quarantine disturbed: %v", err)
	}
	checkAccounting(t, s2)
}

// TestBackgroundCompactorRuns: StartCompactor actually migrates on its own.
func TestBackgroundCompactorRuns(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := keyOf("background")
	if err := s.Put(key, []byte("migrate me")); err != nil {
		t.Fatal(err)
	}
	settle()
	s.StartCompactor(5 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.cold.Contains(key) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background compactor never migrated: %+v", s.Stats())
}

// TestAcceptance50k is the tentpole acceptance sweep: ≥50k synthetic
// results compact into a bounded number of compressed segments and every
// sampled key reads back byte-identically from whichever tier holds it.
func TestAcceptance50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-entry acceptance sweep skipped in -short")
	}
	const n = 50_000
	dir := t.TempDir()
	s, err := OpenOptions(dir, coldOpts())
	if err != nil {
		t.Fatal(err)
	}
	value := func(i int) []byte {
		// Synthetic result payloads: JSON-ish, highly compressible, like the
		// simulator's real output.
		return []byte(fmt.Sprintf(`{"Cycles":%d,"Hits":%d,"Misses":%d,"Trace":"%s"}`,
			i*977, i*31, i*7, strings.Repeat("npru", 200)))
	}
	keyAt := func(i int) string { return keyOf(fmt.Sprintf("accept-%d", i)) }
	var rawBytes int64
	for i := 0; i < n; i++ {
		v := value(i)
		rawBytes += int64(len(v))
		if err := s.Put(keyAt(i), v); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	migrated, _ := s.Compact()
	if migrated != n {
		t.Fatalf("migrated %d of %d", migrated, n)
	}
	st := s.Stats()
	if st.ColdEntries != n || st.HotEntries != 0 {
		t.Fatalf("occupancy after compaction: %+v", st)
	}
	// Bounded file count: ~batch-target-sized segments, not one file per key.
	if st.Segments == 0 || st.Segments > 32 {
		t.Fatalf("%d entries packed into %d segments", n, st.Segments)
	}
	// Compressed: segment files must be materially smaller than the raw data.
	if st.Bytes >= rawBytes/2 {
		t.Fatalf("compression ineffective: %d on disk for %d raw", st.Bytes, rawBytes)
	}
	// Sampled reads from cold (promoting), then again from hot.
	for i := 0; i < n; i += 97 {
		got, ok := s.Get(keyAt(i))
		if !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("cold read %d wrong", i)
		}
		got, ok = s.Get(keyAt(i))
		if !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("hot re-read %d wrong", i)
		}
	}
	st = s.Stats()
	if st.ColdHits == 0 || st.HotHits == 0 {
		t.Fatalf("sweep did not exercise both tiers: %+v", st)
	}
	checkAccounting(t, s)
}
