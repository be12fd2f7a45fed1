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

// BenchmarkStoreHotGet measures the serving fast path: a hot-tier hit,
// including the checksum validation and LRU mtime refresh.
func BenchmarkStoreHotGet(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
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
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

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
