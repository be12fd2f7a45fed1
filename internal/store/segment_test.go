package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// memRead adapts an in-memory segment image to parseSegmentIndex's reader.
func memRead(b []byte) func(off, n int64) ([]byte, error) {
	return func(off, n int64) ([]byte, error) {
		if off < 0 || n < 0 || off+n > int64(len(b)) {
			return nil, errors.New("read out of range")
		}
		return b[off : off+n], nil
	}
}

func segEntries(n int) []segEntry {
	out := make([]segEntry, n)
	for i := range out {
		out[i] = segEntry{
			key:   keyOf(fmt.Sprintf("seg-entry-%d", i)),
			value: bytes.Repeat([]byte{byte('a' + i%26)}, 64+i*17),
		}
	}
	return out
}

// noise is n bytes that DEFLATE cannot shrink.
func noise(n int, seed uint64) []byte {
	b := make([]byte, n)
	x := seed
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

func TestSegmentRoundTrip(t *testing.T) {
	// Compressible values are stored deflated, noise raw.
	raw := make([]segEntry, 7)
	for i := range raw {
		raw[i] = segEntry{key: keyOf(fmt.Sprintf("raw-entry-%d", i)), value: noise(64+i*17, uint64(i+1))}
	}
	for _, stored := range []struct {
		name    string
		entries []segEntry
	}{{"raw", raw}, {"deflated", segEntries(7)}} {
		entries := append(stored.entries, segEntry{key: keyOf("a tombstone"), tomb: true})
		img, recs, err := encodeSegment(entries)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs[:len(stored.entries)] {
			if deflated := rec.flags&recFlate != 0; deflated != (stored.name == "deflated") {
				t.Fatalf("%s record %d: deflate flag %v", stored.name, i, deflated)
			}
		}
		got, err := parseSegmentIndex(int64(len(img)), memRead(img))
		if err != nil {
			t.Fatalf("%s: parse: %v", stored.name, err)
		}
		if len(got) != len(entries) {
			t.Fatalf("parsed %d records, want %d", len(got), len(entries))
		}
		for i, rec := range got {
			if rec != recs[i] {
				t.Fatalf("record %d: parsed %+v != encoded %+v", i, rec, recs[i])
			}
			if entries[i].tomb {
				if !rec.tombstone() {
					t.Fatalf("record %d lost its tombstone flag", i)
				}
				continue
			}
			payload, err := decodeRecord(rec, img[rec.off:rec.off+rec.diskSize()])
			if err != nil {
				t.Fatalf("record %d: decode: %v", i, err)
			}
			if !bytes.Equal(payload, entries[i].value) {
				t.Fatalf("record %d: payload mismatch", i)
			}
		}
		// The scan path must recover the same records.
		if scanned := scanSegment(img); len(scanned) != len(recs) {
			t.Fatalf("scan salvaged %d records, want %d", len(scanned), len(recs))
		}
	}
}

// TestSegmentCompressionShrinks: compressible payloads must land smaller on
// disk, and incompressible ones must be stored raw (flag clear).
func TestSegmentCompressionShrinks(t *testing.T) {
	compressible := segEntry{key: keyOf("zeros"), value: bytes.Repeat([]byte("abcdef"), 2000)}
	img, recs, err := encodeSegment([]segEntry{compressible})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].flags&recFlate == 0 {
		t.Fatal("compressible payload not compressed")
	}
	if int(recs[0].slen) >= len(compressible.value) {
		t.Fatalf("compression did not shrink: %d >= %d", recs[0].slen, len(compressible.value))
	}
	payload, err := decodeRecord(recs[0], img[recs[0].off:recs[0].off+recs[0].diskSize()])
	if err != nil || !bytes.Equal(payload, compressible.value) {
		t.Fatalf("compressed round trip failed: %v", err)
	}

	// Random-ish bytes that DEFLATE cannot shrink stay raw.
	_, recs, err = encodeSegment([]segEntry{{key: keyOf("noise"), value: noise(512, 99)}})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].flags&recFlate != 0 {
		t.Fatal("incompressible payload marked compressed")
	}
}

// TestSegmentTruncatedFooter: truncating a segment at every boundary from
// the end must never panic and never decode wrong — the index parse
// reports corruption and the scan salvages only the intact record prefix.
func TestSegmentTruncatedFooter(t *testing.T) {
	entries := segEntries(5)
	img, recs, err := encodeSegment(entries)
	if err != nil {
		t.Fatal(err)
	}
	for n := len(img) - 1; n >= 0; n-- {
		trunc := img[:n]
		_, perr := parseSegmentIndex(int64(len(trunc)), memRead(trunc))
		if perr == nil {
			t.Fatalf("truncation to %d bytes parsed cleanly", n)
		}
		salvaged := scanSegment(trunc)
		if len(salvaged) > len(recs) {
			t.Fatalf("truncation to %d salvaged %d records from %d", n, len(salvaged), len(recs))
		}
		for i, rec := range salvaged {
			if rec != recs[i] {
				t.Fatalf("truncation to %d: salvaged record %d drifted", n, i)
			}
		}
	}
}

// TestSegmentIndexCorruption: flipping any single bit of the index or
// trailer region must be detected by parseSegmentIndex (ErrCorrupt or a
// structurally impossible index rejected), never panic, and never yield a
// record pointing outside the data region.
func TestSegmentIndexCorruption(t *testing.T) {
	entries := segEntries(4)
	img, _, err := encodeSegment(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the index region from the intact trailer.
	indexOff := int64(binary.BigEndian.Uint64(img[len(img)-17 : len(img)-9]))
	for off := indexOff; off < int64(len(img)); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), img...)
			mut[off] ^= 1 << bit
			recs, err := parseSegmentIndex(int64(len(mut)), memRead(mut))
			if err != nil {
				continue // detected — good
			}
			// A parse that "succeeds" must still describe in-bounds records
			// whose decode catches the lie.
			for _, rec := range recs {
				if rec.off < segHeaderSize || rec.off+rec.diskSize() > indexOff {
					t.Fatalf("bit flip at %d/%d produced out-of-bounds record %+v", off, bit, rec)
				}
			}
		}
	}
}

// TestDecodeRecordCorruption: every single-byte corruption of a record's
// bytes must return ErrCorrupt, never a payload, never a panic.
func TestDecodeRecordCorruption(t *testing.T) {
	img, recs, err := encodeSegment(segEntries(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := recs[0]
	raw := img[rec.off : rec.off+rec.diskSize()]
	for off := range raw {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x20
		if _, err := decodeRecord(rec, mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption at offset %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	// Truncations and extensions too.
	for n := 0; n < len(raw); n++ {
		if _, err := decodeRecord(rec, raw[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: err = %v, want ErrCorrupt", n, err)
		}
	}
	if _, err := decodeRecord(rec, append(append([]byte(nil), raw...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("extended record decoded")
	}
}
