package store

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// benchValue is a representative result payload: 4 KiB, JSON-ish, and
// compressible the way real simulation results are.
func benchValue(i int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"Cycles":%d,"Counters":[`, i*7919)
	for b.Len() < 4<<10 {
		fmt.Fprintf(&b, "%d,", b.Len()*13%997)
	}
	b.WriteString("0]}")
	return b.Bytes()
}

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("bench-%d", i))
	}
	return keys
}

// hotBenchKeys is how many 4 KiB entries the hot read benchmarks cycle
// through: 512 KiB of payload, so the table of remembered values holds
// every one.
const hotBenchKeys = 128

// hotStore fills a store with hotBenchKeys entries, sets the bytes per
// op to one entry's payload and returns the store and its keys.
func hotStore(b *testing.B) (*Store, []string) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(hotBenchKeys)
	val := benchValue(0)
	for _, k := range keys {
		if err := s.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(val)))
	return s, keys
}

// hotReadBench times read on hotStore's keys in turn.
func hotReadBench(b *testing.B, read func(s *Store, key string) ([]byte, bool)) {
	s, keys := hotStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := read(s, keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreHotGet measures the serving fast path: a repeated hot-tier
// hit, answered from the table of remembered values. Only each key's first
// Get reads and verifies its file, and each key's LRU mtime is refreshed
// at most once per touchEvery.
func BenchmarkStoreHotGet(b *testing.B) { hotReadBench(b, (*Store).Get) }

// BenchmarkStoreHotGetParallel is BenchmarkStoreHotGet from GOMAXPROCS
// goroutines at once. Every hit takes the hot tier's lock, so it shows
// what a hit holds that lock for, which the serial benchmark cannot: a
// system call made under it serializes every other hit on the node.
func BenchmarkStoreHotGetParallel(b *testing.B) {
	s, keys := hotStore(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, ok := s.Get(keys[i%len(keys)]); !ok {
				b.Error("miss")
				return
			}
		}
	})
}

// BenchmarkStoreHotPeek measures the file path that every first Get and
// every Peek pays: read the whole file and verify its checksum.
func BenchmarkStoreHotPeek(b *testing.B) { hotReadBench(b, (*Store).Peek) }

// BenchmarkStoreHotPut measures the write path: encode, temp-file stage,
// atomic rename, accounting.
func BenchmarkStoreHotPut(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(256)
	val := benchValue(0)
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreColdGet measures a cold-tier read: random access into a
// segment file, index/header cross-check, CRC, and DEFLATE decompression —
// through the cold tier directly so the read does not promote and stays cold.
func BenchmarkStoreColdGet(b *testing.B) {
	s, err := OpenOptions(b.TempDir(), Options{ColdAge: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(256)
	val := benchValue(0)
	for _, k := range keys {
		if err := s.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if migrated, _ := s.Compact(); migrated != len(keys) {
		b.Fatalf("setup migrated %d of %d", migrated, len(keys))
	}
	cold := s.cold
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cold.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCompaction measures migration throughput: each iteration
// packs 256 hot entries (1 MiB of payload) into cold segments — read,
// compress, CRC, write, verify, delete hot files.
func BenchmarkStoreCompaction(b *testing.B) {
	s, err := OpenOptions(b.TempDir(), Options{ColdAge: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(256)
	val := benchValue(0)
	b.SetBytes(int64(len(keys) * len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, k := range keys {
			if err := s.Put(k, val); err != nil {
				b.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond) // age past ColdAge
		b.StartTimer()
		if migrated, _ := s.Compact(); migrated != len(keys) {
			b.Fatalf("migrated %d of %d", migrated, len(keys))
		}
	}
}
