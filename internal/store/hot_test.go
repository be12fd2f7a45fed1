package store

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// spyFS records the hot-tier calls a store makes on its FS seam, in order.
// afterRead, when set, runs once, after the next successful ReadFile, and
// its result is what the store sees: a test can land a racing Put between
// a read and its checksum.
type spyFS struct {
	FS
	mu        sync.Mutex
	calls     []string
	afterRead func(b []byte) []byte
}

func newSpyFS() *spyFS { return &spyFS{FS: osFS{}} }

func (f *spyFS) log(op string) {
	f.mu.Lock()
	f.calls = append(f.calls, op)
	f.mu.Unlock()
}

// take returns the calls logged since the last take.
func (f *spyFS) take() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	calls := f.calls
	f.calls = nil
	return calls
}

func (f *spyFS) ReadFile(name string) ([]byte, error) {
	f.log("ReadFile")
	b, err := f.FS.ReadFile(name)
	f.mu.Lock()
	hook := f.afterRead
	if err == nil {
		f.afterRead = nil
	}
	f.mu.Unlock()
	if err == nil && hook != nil {
		b = hook(b)
	}
	return b, err
}

func (f *spyFS) WriteTemp(dir string, data []byte) (string, error) {
	f.log("WriteTemp")
	return f.FS.WriteTemp(dir, data)
}

func (f *spyFS) Rename(oldpath, newpath string) error {
	f.log("Rename")
	return f.FS.Rename(oldpath, newpath)
}

func (f *spyFS) Remove(name string) error {
	f.log("Remove")
	return f.FS.Remove(name)
}

func (f *spyFS) Stat(name string) (fs.FileInfo, error) {
	f.log("Stat")
	return f.FS.Stat(name)
}

func (f *spyFS) Chtimes(name string, atime, mtime time.Time) error {
	f.log("Chtimes")
	return f.FS.Chtimes(name, atime, mtime)
}

func openSpy(t *testing.T) (*Store, *spyFS) {
	t.Helper()
	fsys := newSpyFS()
	s, err := OpenOptions(t.TempDir(), Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	return s, fsys
}

func mustGet(t *testing.T, s *Store, key string, want []byte) {
	t.Helper()
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
}

// checkMem asserts, on a quiet store, that every remembered key still has
// its file, that the table's byte count matches its values and stays
// within memBudget, and that no remembered slice can grow into memory
// shared with a caller.
func checkMem(t *testing.T, h *hotTier) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	sum := 0
	for k, v := range h.mem {
		sum += len(v)
		if cap(v) != len(v) {
			t.Fatalf("remembered %s with capacity %d > length %d", k[:8], cap(v), len(v))
		}
		if _, err := os.Stat(h.path(k)); err != nil {
			t.Fatalf("remembered %s after its file went: %v", k[:8], err)
		}
	}
	if sum != h.memBytes || sum > memBudget {
		t.Fatalf("table holds %d bytes, counts %d, budget %d", sum, h.memBytes, memBudget)
	}
}

// TestHotMemRepeatReadsOnce: the first Get reads and verifies the file;
// every repeat makes only the LRU touch on the FS.
func TestHotMemRepeatReadsOnce(t *testing.T) {
	s, fsys := openSpy(t)
	key, val := keyOf("repeat"), []byte(`{"Cycles":1}`)
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	fsys.take()
	for i := range 5 {
		mustGet(t, s, key, val)
		want := []string{"Chtimes"}
		if i == 0 {
			want = []string{"ReadFile", "Chtimes"}
		}
		if calls := fsys.take(); !slices.Equal(calls, want) {
			t.Fatalf("Get %d made %v on the FS, want %v", i, calls, want)
		}
	}
	if st := s.Stats(); st.Hits != 5 || st.HotHits != 5 || st.HotMemoryHits != 4 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	checkMem(t, s.hot)
}

// TestHotMemPutServesNewBytes: a Put forgets the remembered value, so the
// next Get serves what the Put wrote.
func TestHotMemPutServesNewBytes(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	key := keyOf("rewritten")
	for _, val := range [][]byte{[]byte("first value"), []byte("second, longer value")} {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		mustGet(t, s, key, val)
		mustGet(t, s, key, val)
	}
	if st := s.Stats(); st.HotMemoryHits != 2 {
		t.Fatalf("HotMemoryHits = %d, want 2", st.HotMemoryHits)
	}
}

// TestHotMemRemovedFileMisses: a file removed behind the store's back is a
// miss even though its value was remembered, because the touch that
// refreshes the LRU clock finds it gone.
func TestHotMemRemovedFileMisses(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	key, val := keyOf("removed"), []byte("soon gone")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, key, val)
	if err := os.Remove(filepath.Join(dir, key+suffix)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); ok {
		t.Fatalf("removed entry served from memory: %q", got)
	}
	if st := s.Stats(); st.Misses != 1 || st.HotMemoryHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	checkMem(t, s.hot)
	recompute(t, s, key, val)
}

// TestHotMemSurvivesCorruptionUntilScrub: the scrubber reads files, never
// the table. A file that rots on disk after its value was remembered is
// served from the bytes verified before the rot until Scrub quarantines
// it; the quarantine forgets the value, and the next Get misses.
func TestHotMemSurvivesCorruptionUntilScrub(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	key, val := keyOf("rots-later"), []byte("verified before the rot")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, key, val)
	path := filepath.Join(dir, key+suffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mustGet(t, s, key, val)
	if checked, quarantined := s.Scrub(); checked != 1 || quarantined != 1 {
		t.Fatalf("Scrub = (%d, %d), want (1, 1)", checked, quarantined)
	}
	checkMem(t, s.hot)
	if got, ok := s.Get(key); ok {
		t.Fatalf("quarantined entry still served: %q", got)
	}
	if st := s.Stats(); st.HotMemoryHits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
	checkAccounting(t, s)
}

// TestHotMemForgetsDroppedEntries: LRU eviction and migration to the cold
// tier remove entry files, and the table forgets their values with them.
func TestHotMemForgetsDroppedEntries(t *testing.T) {
	val := bytes.Repeat([]byte("d"), 100)
	s, err := OpenOptions(t.TempDir(), Options{MaxBytes: 2 * int64(headerSize+len(val)), ColdAge: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{keyOf("drop-a"), keyOf("drop-b")} {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
		mustGet(t, s, k, val)
	}
	if err := s.Put(keyOf("drop-c"), val); err != nil { // evicts one of the two read
		t.Fatal(err)
	}
	checkMem(t, s.hot)
	if n := len(s.hot.mem); n != 1 {
		t.Fatalf("table holds %d values after an eviction, want 1", n)
	}
	time.Sleep(time.Millisecond)
	if migrated, _ := s.Compact(); migrated != 2 {
		t.Fatalf("Compact migrated %d entries, want 2", migrated)
	}
	if n := len(s.hot.mem); n != 0 {
		t.Fatalf("table holds %d values after migration, want 0", n)
	}
}

// TestHotMemPeekNeverAdds: Peek reads and verifies the file every time and
// never fills the table, so the first serving Get after it still reads.
func TestHotMemPeekNeverAdds(t *testing.T) {
	s, fsys := openSpy(t)
	key, val := keyOf("peeked"), []byte("copied to a replica")
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	fsys.take()
	for range 3 {
		if got, ok := s.Peek(key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("Peek = %q, %v", got, ok)
		}
	}
	if calls := fsys.take(); !slices.Equal(calls, []string{"ReadFile", "ReadFile", "ReadFile"}) {
		t.Fatalf("3 Peeks made %v on the FS", calls)
	}
	if n := len(s.hot.mem); n != 0 {
		t.Fatalf("Peek filled the table with %d values", n)
	}
	mustGet(t, s, key, val)
	if calls := fsys.take(); !slices.Equal(calls, []string{"ReadFile", "Chtimes"}) {
		t.Fatalf("first Get after Peeks made %v on the FS", calls)
	}
	if st := s.Stats(); st.HotMemoryHits != 0 || st.HotHits != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHotMemWithinBudget: reading twice the budget's worth of entries, in
// two passes, keeps the table's bytes within memBudget, and a value larger
// than the whole budget is never remembered.
func TestHotMemWithinBudget(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	val := bytes.Repeat([]byte("b"), 8<<10)
	keys := make([]string, 2*memBudget/len(val))
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("budget-%d", i))
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	big, bigVal := keyOf("over-budget"), bytes.Repeat([]byte("B"), memBudget+1)
	if err := s.Put(big, bigVal); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		for _, k := range keys {
			mustGet(t, s, k, val)
			checkMem(t, s.hot)
		}
		mustGet(t, s, big, bigVal)
		checkMem(t, s.hot)
	}
	s.hot.mu.Lock()
	_, bigKept := s.hot.mem[big]
	held := len(s.hot.mem)
	s.hot.mu.Unlock()
	if bigKept || held != memBudget/len(val) {
		t.Fatalf("table holds %d values (over-budget value kept: %v), want %d", held, bigKept, memBudget/len(val))
	}
	if st := s.Stats(); st.HotMemoryHits == 0 {
		t.Fatalf("no repeat answered from the table: %+v", st)
	}
}

// TestHotMemRacingPutNotRemembered: a read that overlapped a Put of new
// bytes may return the old ones, but must not remember them, or every
// later Get would serve stale bytes.
func TestHotMemRacingPutNotRemembered(t *testing.T) {
	s, fsys := openSpy(t)
	key, old, fresh := keyOf("overlapped"), []byte("old bytes"), []byte("fresh bytes")
	if err := s.Put(key, old); err != nil {
		t.Fatal(err)
	}
	fsys.afterRead = func(b []byte) []byte {
		if err := s.Put(key, fresh); err != nil {
			t.Error(err)
		}
		return b
	}
	mustGet(t, s, key, old)
	mustGet(t, s, key, fresh)
	mustGet(t, s, key, fresh)
	if st := s.Stats(); st.HotMemoryHits != 1 {
		t.Fatalf("HotMemoryHits = %d, want 1", st.HotMemoryHits)
	}
}

// TestCorruptReadKeepsRacingPut: a Get whose read comes back corrupt drops
// the entry only if nothing replaced it since the read began. Here a Put
// of fresh bytes lands between the read and its checksum; the Get misses,
// and the fresh entry must survive it.
func TestCorruptReadKeepsRacingPut(t *testing.T) {
	s, fsys := openSpy(t)
	key, fresh := keyOf("racing-put"), []byte("fresh bytes")
	if err := s.Put(key, []byte("about to be replaced")); err != nil {
		t.Fatal(err)
	}
	fsys.afterRead = func([]byte) []byte {
		if err := s.Put(key, fresh); err != nil {
			t.Error(err)
		}
		return []byte("garbage")
	}
	if got, ok := s.Get(key); ok {
		t.Fatalf("garbage served: %q", got)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), key+suffix)); err != nil {
		t.Fatalf("the racing Put's entry was dropped: %v", err)
	}
	mustGet(t, s, key, fresh)
	checkAccounting(t, s)
}

// TestHotMemAgreesWithDisk races Gets against Puts of two different values
// per key, LRU eviction and scrubs. Every Get must return one of the
// key's values, and once traffic stops each remembered value must equal
// what its file holds.
func TestHotMemAgreesWithDisk(t *testing.T) {
	dir := t.TempDir()
	vals := [][]byte{bytes.Repeat([]byte("s"), 60), bytes.Repeat([]byte("L"), 900)}
	s, _ := Open(dir, 5*int64(headerSize+len(vals[1])))
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("agree-%d", i))
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				k := keys[(g*3+i)%len(keys)]
				switch {
				case i%4 == 0:
					if err := s.Put(k, vals[(g+i)%2]); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case g == 0 && i%50 == 1:
					s.Scrub()
				default:
					if got, ok := s.Get(k); ok && !bytes.Equal(got, vals[0]) && !bytes.Equal(got, vals[1]) {
						t.Errorf("Get(%s) = %q, a value never put", k[:8], got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checkMem(t, s.hot)
	for _, k := range keys {
		onDisk, err := os.ReadFile(filepath.Join(dir, k+suffix))
		want, valid := decode(onDisk)
		got, ok := s.Get(k)
		if ok != (err == nil && valid) || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q, %v; the file holds %q (read error %v)", k[:8], got, ok, want, err)
		}
	}
	checkAccounting(t, s)
}
