package store

import "errors"

// ErrNotFound reports a key with no live entry in a tier.
var ErrNotFound = errors.New("store: not found")

// ErrCorrupt reports an entry whose on-disk bytes failed validation —
// truncation, bit rot, a torn segment write, or index corruption. The
// engine treats it as a miss (the value is recomputable by construction)
// and drops or quarantines the damaged bytes so they cannot shadow a
// rewrite. Corruption is never a panic and never served.
var ErrCorrupt = errors.New("store: corrupt entry")

// TierStats is one tier's occupancy snapshot.
type TierStats struct {
	Entries   int   // live entries
	Bytes     int64 // live payload + per-entry overhead resident in files
	DiskBytes int64 // physical bytes on disk (includes dead segment space)
	Files     int   // entry files (hot) or segment files (cold)
	DeadBytes int64 // bytes owned by dead records awaiting compaction (cold)
}
