package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSegmentRoundTrip drives the segment codec from both ends: encode
// arbitrary payloads and require a lossless round trip through the index
// parser and record decoder, then mutate the image (truncate + bit flip)
// and require the read side to fail with ErrCorrupt or salvage a valid
// prefix — never panic, never return wrong bytes.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte("hello"), []byte(""), uint16(0), uint16(0))
	f.Add([]byte{0xff, 0x00, 0xff}, bytes.Repeat([]byte("ab"), 512), uint16(7), uint16(3))
	f.Add(bytes.Repeat([]byte{0}, 4096), []byte("x"), uint16(999), uint16(255))
	f.Fuzz(func(t *testing.T, v1, v2 []byte, cut, flip uint16) {
		entries := []segEntry{
			{key: keyOf("fuzz-1"), value: v1},
			{key: keyOf("fuzz-2"), value: v2},
			{key: keyOf("fuzz-del"), tomb: true},
		}
		img, recs, err := encodeSegment(entries)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}

		// Lossless round trip of the pristine image.
		parsed, err := parseSegmentIndex(int64(len(img)), memRead(img))
		if err != nil {
			t.Fatalf("parse pristine: %v", err)
		}
		if len(parsed) != len(recs) {
			t.Fatalf("parsed %d records, want %d", len(parsed), len(recs))
		}
		for i, rec := range parsed {
			if rec != recs[i] {
				t.Fatalf("record %d drifted through the index", i)
			}
			if rec.tombstone() {
				continue
			}
			got, err := decodeRecord(rec, img[rec.off:rec.off+rec.diskSize()])
			if err != nil {
				t.Fatalf("decode record %d: %v", i, err)
			}
			if !bytes.Equal(got, entries[i].value) {
				t.Fatalf("record %d payload mismatch", i)
			}
		}

		// Mutated image: truncate somewhere, flip one byte somewhere. The
		// parser may succeed only if the mutation missed everything it
		// reads; any salvage must be a prefix of the true record list, and
		// decoding a salvaged record must yield the true payload or
		// ErrCorrupt.
		mut := append([]byte(nil), img...)
		if len(mut) > 0 {
			mut = mut[:int(cut)%(len(mut)+1)]
		}
		if len(mut) > 0 {
			mut[int(flip)%len(mut)] ^= 0x41
		}
		salvaged := scanSegment(mut)
		if len(salvaged) > len(recs) {
			t.Fatalf("salvaged %d records from a damaged image of %d", len(salvaged), len(recs))
		}
		byKey := make(map[string]int, len(entries))
		for i, e := range entries {
			byKey[e.key] = i
		}
		for _, rec := range salvaged {
			if rec.tombstone() {
				continue
			}
			i, ok := byKey[rec.key]
			if !ok {
				continue // a flip can forge a header; CRC decides below
			}
			got, err := decodeRecord(rec, mut[rec.off:rec.off+rec.diskSize()])
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decode salvaged: unexpected error %v", err)
				}
				continue
			}
			if !bytes.Equal(got, entries[i].value) {
				t.Fatalf("salvaged record %s decoded to wrong bytes", rec.key)
			}
		}
		// And parsing the mutant must never panic; errors are fine.
		if recs2, err := parseSegmentIndex(int64(len(mut)), memRead(mut)); err == nil {
			for _, rec := range recs2 {
				_, derr := decodeRecord(rec, mut[rec.off:rec.off+rec.diskSize()])
				if derr != nil && !errors.Is(derr, ErrCorrupt) {
					t.Fatalf("decode after mutant parse: unexpected error %v", derr)
				}
			}
		}
	})
}

// FuzzSegmentIndex: whatever index entries a segment carries under a
// trailer whose CRC-32C matches them, every record parseSegmentIndex
// accepts lies inside [segHeaderSize, indexOff), and decoding its bytes
// returns a payload or ErrCorrupt, never a panic.
func FuzzSegmentIndex(f *testing.F) {
	img, recs, err := encodeSegment(append(segEntries(3), segEntry{key: keyOf("fuzz-del"), tomb: true}))
	if err != nil {
		f.Fatal(err)
	}
	indexOff := recs[len(recs)-1].off + recs[len(recs)-1].diskSize()
	f.Add(img[segHeaderSize:indexOff], img[indexOff:len(img)-segTrailerSize])
	f.Add([]byte("data"), []byte{})
	overflow := append(make([]byte, rawKeySize+1), 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf5, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 0)
	f.Add([]byte{}, overflow)
	f.Fuzz(func(t *testing.T, region, index []byte) {
		img := indexedImage(region, index)
		indexOff := int64(segHeaderSize + len(region))
		recs, err := parseSegmentIndex(int64(len(img)), memRead(img))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parse: unexpected error %v", err)
			}
			return
		}
		for _, rec := range recs {
			if rec.off < segHeaderSize || rec.off > indexOff-rec.diskSize() {
				t.Fatalf("record %+v outside [%d, %d)", rec, segHeaderSize, indexOff)
			}
			if _, err := decodeRecord(rec, img[rec.off:rec.off+rec.diskSize()]); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode %+v: unexpected error %v", rec, err)
			}
		}
	})
}
