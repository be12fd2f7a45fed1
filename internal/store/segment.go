package store

// Segment file format — the cold tier's on-disk unit.
//
// A segment is an immutable, append-once batch of entries packed into one
// file, written to a temp file and atomically renamed into place:
//
//	segment := magic record* index trailer
//	magic   := "NCSG\x01"                                  (5 bytes)
//	record  := "NR" key[32] flags[1] ulen[4] slen[4] crc[4] data[slen]
//	index   := ientry*count
//	ientry  := key[32] flags[1] off[8] slen[4] ulen[4] crc[4]
//	trailer := count[4] indexOff[8] indexCRC[4] "NCSF\x01" (21 bytes)
//
// All integers are big-endian, matching the hot tier's entry header. Keys
// are the raw 32 SHA-256 bytes (the hex key decoded). flags bit 0 marks a
// DEFLATE-compressed payload (slen = compressed, ulen = original); bit 1
// marks a tombstone (a durable deletion: slen = ulen = 0). crc is CRC-32C
// over the stored payload bytes.
//
// The trailer-terminated index makes open cheap: seek to the end, validate
// the trailer, CRC-check the index region, and the whole segment is mapped
// without reading record data. If any of that fails — torn write, index
// corruption — openSegment falls back to a forward scan of the record
// region (scanSegment), salvaging every record whose header magic and CRC
// validate and ignoring the damaged tail. Readers re-verify each record's
// header against the index entry and its CRC against the data on every
// read, so index corruption or bit rot surfaces as ErrCorrupt, never as
// wrong bytes or a panic.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
)

var (
	segMagic     = []byte("NCSG\x01")
	segFootMagic = []byte("NCSF\x01")
	recMagic     = []byte("NR")
)

const (
	rawKeySize     = 32
	segHeaderSize  = 5                              // len(segMagic)
	recHeaderSize  = 2 + rawKeySize + 1 + 4 + 4 + 4 // magic key flags ulen slen crc
	idxEntrySize   = rawKeySize + 1 + 8 + 4 + 4 + 4 // key flags off slen ulen crc
	segTrailerSize = 4 + 8 + 4 + 5                  // count indexOff indexCRC magic
)

// Record flags.
const (
	recFlate     byte = 1 << 0 // payload is DEFLATE-compressed
	recTombstone byte = 1 << 1 // durable deletion marker, no payload
)

// maxSegRecord bounds a single record's stored payload; anything larger in
// an index or header is treated as corruption rather than an allocation.
const maxSegRecord = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segRecord is one record's location and identity inside a segment file —
// the in-memory index value, and exactly what one index entry encodes.
type segRecord struct {
	key   string // hex key
	flags byte
	off   int64  // record start (the "NR" magic) within the segment file
	slen  uint32 // stored payload length (compressed size when recFlate)
	ulen  uint32 // uncompressed payload length
	crc   uint32 // CRC-32C of the stored payload bytes
}

func (r segRecord) tombstone() bool { return r.flags&recTombstone != 0 }

// diskSize is the bytes this record occupies in the file.
func (r segRecord) diskSize() int64 { return recHeaderSize + int64(r.slen) }

// segEntry is one key/value pair to pack into a segment. A nil value with
// tomb set encodes a tombstone.
type segEntry struct {
	key   string
	value []byte
	tomb  bool
}

// encodeSegment packs entries into a complete segment image (records,
// index, trailer) and returns it with the per-record index. A record is
// stored DEFLATE-compressed only when that actually shrinks it, so the
// flag is per-record, not per-segment.
func encodeSegment(entries []segEntry) ([]byte, []segRecord, error) {
	var buf bytes.Buffer
	buf.Write(segMagic)
	recs := make([]segRecord, 0, len(entries))
	for _, e := range entries {
		rawKey, err := hex.DecodeString(e.key)
		if err != nil || len(rawKey) != rawKeySize {
			return nil, nil, fmt.Errorf("store: segment key %q is not hex SHA-256", e.key)
		}
		var flags byte
		data := e.value
		switch {
		case e.tomb:
			flags = recTombstone
			data = nil
		case len(e.value) > 0:
			if c, ok := deflate(e.value); ok {
				flags = recFlate
				data = c
			}
		}
		if len(e.value) > maxSegRecord || len(data) > maxSegRecord {
			return nil, nil, fmt.Errorf("store: segment entry %s exceeds %d bytes", e.key, maxSegRecord)
		}
		rec := segRecord{
			key:   e.key,
			flags: flags,
			off:   int64(buf.Len()),
			slen:  uint32(len(data)),
			ulen:  uint32(len(e.value)),
			crc:   crc32.Checksum(data, crcTable),
		}
		if e.tomb {
			rec.ulen = 0
		}
		buf.Write(recMagic)
		buf.Write(rawKey)
		buf.WriteByte(flags)
		var u32 [4]byte
		binary.BigEndian.PutUint32(u32[:], rec.ulen)
		buf.Write(u32[:])
		binary.BigEndian.PutUint32(u32[:], rec.slen)
		buf.Write(u32[:])
		binary.BigEndian.PutUint32(u32[:], rec.crc)
		buf.Write(u32[:])
		buf.Write(data)
		recs = append(recs, rec)
	}
	indexOff := int64(buf.Len())
	for _, rec := range recs {
		rawKey, _ := hex.DecodeString(rec.key)
		buf.Write(rawKey)
		buf.WriteByte(rec.flags)
		var u64 [8]byte
		binary.BigEndian.PutUint64(u64[:], uint64(rec.off))
		buf.Write(u64[:])
		var u32 [4]byte
		binary.BigEndian.PutUint32(u32[:], rec.slen)
		buf.Write(u32[:])
		binary.BigEndian.PutUint32(u32[:], rec.ulen)
		buf.Write(u32[:])
		binary.BigEndian.PutUint32(u32[:], rec.crc)
		buf.Write(u32[:])
	}
	indexCRC := crc32.Checksum(buf.Bytes()[indexOff:], crcTable)
	var tr [segTrailerSize]byte
	binary.BigEndian.PutUint32(tr[0:4], uint32(len(recs)))
	binary.BigEndian.PutUint64(tr[4:12], uint64(indexOff))
	binary.BigEndian.PutUint32(tr[12:16], indexCRC)
	copy(tr[16:], segFootMagic)
	buf.Write(tr[:])
	return buf.Bytes(), recs, nil
}

// deflate compresses b at BestSpeed, reporting ok=false when compression
// does not shrink it (store uncompressed instead).
func deflate(b []byte) ([]byte, bool) {
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		return nil, false
	}
	if _, err := w.Write(b); err != nil {
		return nil, false
	}
	if err := w.Close(); err != nil {
		return nil, false
	}
	if out.Len() >= len(b) {
		return nil, false
	}
	return out.Bytes(), true
}

// inflate decompresses stored DEFLATE bytes, verifying the decompressed
// size matches ulen exactly.
func inflate(data []byte, ulen uint32) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out := make([]byte, 0, ulen)
	// Read at most ulen+1 bytes: a stream that decompresses longer than its
	// declared size is corrupt, and the limit stops a hostile stream from
	// allocating unboundedly.
	n, err := io.Copy(limitedAppender{&out, int(ulen) + 1}, r)
	if err != nil && err != errAppendLimit {
		return nil, ErrCorrupt
	}
	if n != int64(ulen) {
		return nil, ErrCorrupt
	}
	return out, nil
}

var errAppendLimit = fmt.Errorf("store: decompressed past declared size")

// limitedAppender appends into *dst up to limit total bytes.
type limitedAppender struct {
	dst   *[]byte
	limit int
}

func (l limitedAppender) Write(p []byte) (int, error) {
	if len(*l.dst)+len(p) > l.limit {
		room := l.limit - len(*l.dst)
		*l.dst = append(*l.dst, p[:room]...)
		return room, errAppendLimit
	}
	*l.dst = append(*l.dst, p...)
	return len(p), nil
}

// parseSegmentIndex validates the trailer and index of a segment of the
// given size, fetching byte ranges through read (off, n) — the cold tier
// passes an FS-backed reader, tests pass in-memory slices. Any structural
// problem (bad magic, out-of-range offsets, CRC mismatch) returns
// ErrCorrupt; the caller falls back to scanSegment.
func parseSegmentIndex(size int64, read func(off, n int64) ([]byte, error)) ([]segRecord, error) {
	if size < int64(segHeaderSize+segTrailerSize) {
		return nil, ErrCorrupt
	}
	head, err := read(0, segHeaderSize)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(head, segMagic) {
		return nil, ErrCorrupt
	}
	tr, err := read(size-segTrailerSize, segTrailerSize)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(tr[16:], segFootMagic) {
		return nil, ErrCorrupt
	}
	count := int64(binary.BigEndian.Uint32(tr[0:4]))
	indexOff := int64(binary.BigEndian.Uint64(tr[4:12]))
	wantCRC := binary.BigEndian.Uint32(tr[12:16])
	if indexOff < segHeaderSize || indexOff > size-segTrailerSize ||
		count*idxEntrySize != size-segTrailerSize-indexOff {
		return nil, ErrCorrupt
	}
	idx, err := read(indexOff, count*idxEntrySize)
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(idx, crcTable) != wantCRC {
		return nil, ErrCorrupt
	}
	recs := make([]segRecord, 0, count)
	for i := int64(0); i < count; i++ {
		e := idx[i*idxEntrySize : (i+1)*idxEntrySize]
		rec := segRecord{
			key:   hex.EncodeToString(e[:rawKeySize]),
			flags: e[rawKeySize],
			off:   int64(binary.BigEndian.Uint64(e[rawKeySize+1 : rawKeySize+9])),
			slen:  binary.BigEndian.Uint32(e[rawKeySize+9 : rawKeySize+13]),
			ulen:  binary.BigEndian.Uint32(e[rawKeySize+13 : rawKeySize+17]),
			crc:   binary.BigEndian.Uint32(e[rawKeySize+17 : rawKeySize+21]),
		}
		// Subtract rather than add: off+diskSize wraps negative for an
		// offset near MaxInt64.
		if rec.slen > maxSegRecord || rec.ulen > maxSegRecord ||
			rec.off < segHeaderSize || rec.off > indexOff-rec.diskSize() {
			return nil, ErrCorrupt
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// scanSegment is the salvage path: a forward scan of a whole segment image
// whose index or trailer failed validation (torn write, index corruption).
// It walks records from the front, accepting each one whose magic, bounds,
// and CRC all validate, and stops at the first that does not — everything
// before the damage is recovered, the damaged tail is abandoned. A file
// that does not even start with the segment magic salvages nothing.
func scanSegment(b []byte) []segRecord {
	if len(b) < segHeaderSize || !bytes.Equal(b[:segHeaderSize], segMagic) {
		return nil
	}
	var recs []segRecord
	off := int64(segHeaderSize)
	for off+recHeaderSize <= int64(len(b)) {
		h := b[off : off+recHeaderSize]
		if !bytes.Equal(h[:2], recMagic) {
			break
		}
		rec := segRecord{
			key:   hex.EncodeToString(h[2 : 2+rawKeySize]),
			flags: h[2+rawKeySize],
			off:   off,
			ulen:  binary.BigEndian.Uint32(h[2+rawKeySize+1 : 2+rawKeySize+5]),
			slen:  binary.BigEndian.Uint32(h[2+rawKeySize+5 : 2+rawKeySize+9]),
			crc:   binary.BigEndian.Uint32(h[2+rawKeySize+9 : 2+rawKeySize+13]),
		}
		if rec.slen > maxSegRecord || off+rec.diskSize() > int64(len(b)) {
			break
		}
		data := b[off+recHeaderSize : off+rec.diskSize()]
		if crc32.Checksum(data, crcTable) != rec.crc {
			break
		}
		recs = append(recs, rec)
		off += rec.diskSize()
	}
	return recs
}

// decodeRecord validates raw — the recHeaderSize+slen bytes at rec.off —
// against the index entry and returns the decompressed payload. Any
// disagreement between index, header, and data is ErrCorrupt.
func decodeRecord(rec segRecord, raw []byte) ([]byte, error) {
	if int64(len(raw)) != rec.diskSize() || !bytes.Equal(raw[:2], recMagic) {
		return nil, ErrCorrupt
	}
	h := raw[:recHeaderSize]
	if hex.EncodeToString(h[2:2+rawKeySize]) != rec.key ||
		h[2+rawKeySize] != rec.flags ||
		binary.BigEndian.Uint32(h[2+rawKeySize+1:2+rawKeySize+5]) != rec.ulen ||
		binary.BigEndian.Uint32(h[2+rawKeySize+5:2+rawKeySize+9]) != rec.slen ||
		binary.BigEndian.Uint32(h[2+rawKeySize+9:2+rawKeySize+13]) != rec.crc {
		return nil, ErrCorrupt
	}
	data := raw[recHeaderSize:]
	if crc32.Checksum(data, crcTable) != rec.crc {
		return nil, ErrCorrupt
	}
	if rec.tombstone() {
		return nil, ErrCorrupt // tombstones carry no payload; reading one is a caller bug
	}
	if rec.flags&recFlate != 0 {
		return inflate(data, rec.ulen)
	}
	if uint32(len(data)) != rec.ulen {
		return nil, ErrCorrupt
	}
	// Copy out of the read buffer so callers own their bytes.
	return append([]byte(nil), data...), nil
}
