package store

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"netcache/internal/faults"
)

// TestChaosStoreRecompute drives the store through a seeded fault storm —
// read errors, read corruption, write errors, silent short writes, rename
// failures — with the service's recompute-on-miss discipline on top: every
// failed Get is answered by recomputing the (deterministic) value and
// re-Putting it. The store must never serve wrong bytes, never let
// accounting drift from the directory, and converge to a fully healthy
// state once faults stop.
func TestChaosStoreRecompute(t *testing.T) {
	inj := faults.New(1234)
	inj.Set(faults.StoreRead, 0.10)
	inj.Set(faults.StoreCorrupt, 0.10)
	inj.Set(faults.StoreWrite, 0.10)
	inj.Set(faults.StoreShortWrite, 0.05)
	inj.Set(faults.StoreRename, 0.05)

	dir := t.TempDir()
	s, err := OpenOptions(dir, Options{FS: NewFaultFS(inj)})
	if err != nil {
		t.Fatal(err)
	}
	value := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i%26)}, 100+i*7)
	}
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("chaos-%d", i))
	}

	var putFailures, badGets int
	for round := 0; round < 200; round++ {
		i := round % len(keys)
		got, ok := s.Get(keys[i])
		if ok {
			if !bytes.Equal(got, value(i)) {
				t.Fatalf("round %d: store served wrong bytes for key %d", round, i)
			}
			continue
		}
		badGets++
		// Miss (real, injected, or corruption): recompute and persist.
		// Persisting may itself fail under injection — that is allowed;
		// the next Get just misses again.
		if err := s.Put(keys[i], value(i)); err != nil {
			putFailures++
		}
	}
	if badGets == 0 || putFailures == 0 {
		t.Fatalf("fault storm too quiet: %d misses, %d put failures (seed drift?)", badGets, putFailures)
	}
	st := s.Stats()
	if st.Corrupt == 0 || st.PutErrors == 0 {
		t.Fatalf("expected corruption and put errors under injection: %+v", st)
	}

	// Faults stop: every key must converge to a clean, correct hit.
	inj.Disable()
	for i, k := range keys {
		if _, ok := s.Get(k); !ok {
			if err := s.Put(k, value(i)); err != nil {
				t.Fatalf("fault-free Put(%d): %v", i, err)
			}
		}
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d failed to converge after faults stopped", i)
		}
	}
	checkAccounting(t, s)

	// A scrub over the recovered store finds nothing left to quarantine.
	if checked, quarantined := s.Scrub(); checked != len(keys) || quarantined != 0 {
		t.Fatalf("post-recovery Scrub = (%d, %d), want (%d, 0)", checked, quarantined, len(keys))
	}
}

// TestChaosTieredRecompute extends the fault storm across both tiers: on
// top of the hot-tier sites, segment reads fail and corrupt bits, segment
// writes fail and tear, while an explicit Compact between rounds keeps
// entries flowing hot → cold → (promotion) → hot through the storm. The
// recompute-on-miss discipline must still never observe wrong bytes, and
// the store must converge once faults stop.
func TestChaosTieredRecompute(t *testing.T) {
	inj := faults.New(4242)
	inj.Set(faults.StoreRead, 0.05)
	inj.Set(faults.StoreCorrupt, 0.05)
	inj.Set(faults.StoreWrite, 0.05)
	inj.Set(faults.StoreRename, 0.05)
	inj.Set(faults.SegmentRead, 0.10)
	inj.Set(faults.SegmentCorrupt, 0.10)
	inj.Set(faults.SegmentWrite, 0.10)
	inj.Set(faults.SegmentTorn, 0.10)

	dir := t.TempDir()
	opt := Options{ColdAge: time.Nanosecond, FS: NewFaultFS(inj)}
	s, err := OpenOptions(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	value := func(i int) []byte {
		return bytes.Repeat([]byte{byte('A' + i%26)}, 150+i*13)
	}
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("tier-chaos-%d", i))
	}

	var misses int
	for round := 0; round < 150; round++ {
		i := round % len(keys)
		got, ok := s.Get(keys[i])
		if ok {
			if !bytes.Equal(got, value(i)) {
				t.Fatalf("round %d: wrong bytes for key %d", round, i)
			}
		} else {
			misses++
			_ = s.Put(keys[i], value(i))
		}
		if round%10 == 9 {
			time.Sleep(2 * time.Millisecond) // age entries past ColdAge
			s.Compact()                      // faults fire mid-compaction
		}
	}
	if misses == 0 {
		t.Fatal("fault storm too quiet (seed drift?)")
	}

	// Faults stop: converge every key, then force one more full cycle
	// through the cold tier and back.
	inj.Disable()
	for i, k := range keys {
		if _, ok := s.Get(k); !ok {
			if err := s.Put(k, value(i)); err != nil {
				t.Fatalf("fault-free Put(%d): %v", i, err)
			}
		}
	}
	time.Sleep(20 * time.Millisecond)
	if migrated, _ := s.Compact(); migrated == 0 {
		t.Fatalf("fault-free compaction moved nothing: %+v", s.Stats())
	}
	for i, k := range keys {
		got, ok := s.Get(k)
		if !ok || !bytes.Equal(got, value(i)) {
			t.Fatalf("key %d failed to converge through the cold tier", i)
		}
	}
	checkAccounting(t, s)
	if _, quarantined := s.Scrub(); quarantined != 0 {
		t.Fatalf("post-recovery scrub quarantined %d", quarantined)
	}
}

// TestChaosStoreEvictionBound: injection must not break the size bound —
// under write/rename faults the store still never exceeds maxBytes by more
// than one in-flight entry.
func TestChaosStoreEvictionBound(t *testing.T) {
	inj := faults.New(77)
	inj.Set(faults.StoreWrite, 0.15)
	inj.Set(faults.StoreRename, 0.10)
	inj.Set(faults.StoreShortWrite, 0.10)

	val := bytes.Repeat([]byte("e"), 256)
	entryBytes := int64(headerSize + len(val))
	maxBytes := 4 * entryBytes
	s, err := OpenOptions(t.TempDir(), Options{MaxBytes: maxBytes, FS: NewFaultFS(inj)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		_ = s.Put(keyOf(fmt.Sprintf("bound-%d", i)), val)
		if got := s.Stats().Bytes; got > maxBytes {
			t.Fatalf("put %d: store at %d bytes exceeds bound %d", i, got, maxBytes)
		}
	}
	checkAccounting(t, s)
}
