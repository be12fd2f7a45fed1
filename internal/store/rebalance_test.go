package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func rebalanceKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("rebalance-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestStoreKeys(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if got := s.Keys(); len(got) != 0 {
		t.Fatalf("empty store lists %v", got)
	}
	want := make(map[string]bool)
	for i := 0; i < 10; i++ {
		k := rebalanceKey(i)
		want[k] = true
		if err := s.Put(k, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Migrate half to the cold tier so the listing spans both.
	var batch []segEntry
	for i := 0; i < 5; i++ {
		k := rebalanceKey(i)
		v, _ := s.Get(k)
		batch = append(batch, segEntry{key: k, value: v})
	}
	if err := s.cold.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.hot.Delete(rebalanceKey(i))
	}

	// A key resident in both tiers is listed once; temp files, non-key
	// names and subdirectories are not listed at all.
	v, _ := s.Get(rebalanceKey(5))
	if err := s.cold.PutBatch([]segEntry{{key: rebalanceKey(5), value: v}}); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"put-123", "notakey.res", rebalanceKey(11) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(s.Dir(), rebalanceKey(12)+".res"), 0o755); err != nil {
		t.Fatal(err)
	}

	got := s.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys() = %d entries, want %d: %v", len(got), len(want), got)
	}
	for i, k := range got {
		if !want[k] {
			t.Fatalf("unexpected key %s", k)
		}
		if i > 0 && got[i-1] >= k {
			t.Fatal("Keys() not sorted ascending")
		}
	}
}

// TestPeek: the background read verifies like Get but leaves the LRU
// alone — no mtime refresh on a hot hit, no promotion on a cold hit — and
// still drops a corrupt entry.
func TestPeek(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hot, cold, bad := rebalanceKey(0), rebalanceKey(1), rebalanceKey(2)
	val := func(k string) []byte { return []byte(`{"k":"` + k[:8] + `"}`) }
	if err := s.Put(hot, val(hot)); err != nil {
		t.Fatal(err)
	}
	if err := s.cold.PutBatch([]segEntry{{key: cold, value: val(cold)}}); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	hotPath := filepath.Join(s.Dir(), hot+suffix)
	if err := os.Chtimes(hotPath, past, past); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), bad+suffix), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, k := range []string{hot, cold} {
		if got, ok := s.Peek(k); !ok || string(got) != string(val(k)) {
			t.Fatalf("Peek(%s) = %q, %v", k[:8], got, ok)
		}
	}
	if info, err := os.Stat(hotPath); err != nil || !info.ModTime().Equal(past) {
		t.Fatalf("Peek refreshed the hot entry's mtime (%v, %v)", info.ModTime(), err)
	}
	if st := s.Stats(); st.Promotions != 0 || st.ColdEntries != 1 || st.HotHits != 1 || st.ColdHits != 1 {
		t.Fatalf("after Peek: %+v", st)
	}
	if _, ok := s.Peek(bad); ok {
		t.Fatal("Peek served a corrupt entry")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), bad+suffix)); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not dropped: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
	}

	// Get, by contrast, is a serving read: it refreshes and promotes.
	s.Get(hot)
	s.Get(cold)
	if info, _ := os.Stat(hotPath); info.ModTime().Equal(past) {
		t.Fatal("Get did not refresh the hot entry's mtime")
	}
	if st := s.Stats(); st.Promotions != 1 || st.ColdEntries != 0 {
		t.Fatalf("after Get: promotions %d, cold entries %d", st.Promotions, st.ColdEntries)
	}
}
