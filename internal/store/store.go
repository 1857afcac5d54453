// Package store is the durability layer of the serving stack: a pluggable
// snapshot-plus-write-ahead-log store behind one Store interface, with an
// in-memory backend for tests and a file backend for production.
//
// The contract mirrors the classic log-then-apply recovery discipline:
//
//   - Every request a shard accepts is appended to its per-shard WAL and
//     committed — one Flush covering a whole group-commit batch — *before*
//     any of the batch's tickets are acknowledged (the serve layer routes
//     acknowledgements through the WAL writer), so the durable record is
//     always a gap-free prefix of the admission order covering every
//     acknowledged request.  SyncMode sets what "committed" means: nothing
//     (SyncNone), the OS page cache (SyncOS, the default), or fsync
//     (SyncFull).
//   - At epoch boundaries the shard encodes its full scheduler state with
//     the versioned binary codec in codec.go and calls SaveSnapshot, which
//     atomically replaces the previous snapshot.  WAL records carry their
//     shard-local sequence number, so replay skips records the snapshot
//     already covers — a crash between the snapshot rename and the WAL
//     truncation can never double-apply a request.
//   - On restart the serve layer loads the latest snapshot and replays the
//     WAL tail through the ordinary admit path, converging bit for bit to
//     the state of an uninterrupted run (the crash-recovery equivalence
//     tests in internal/serve pin this for every strategy).
//
// All decoding is defensive: truncated or corrupted bytes surface an error
// wrapping ErrCorruptSnapshot, never a panic.  A torn final WAL frame —
// the normal artifact of a crash mid-append — is not corruption: its
// request was never acknowledged, so replay simply stops there.
package store

import (
	"errors"
	"fmt"
)

// ErrCorruptSnapshot marks snapshot or WAL bytes that fail structural
// validation (bad magic, unsupported version, checksum mismatch, truncated
// payload, out-of-range lengths).  Classify with errors.Is; it is
// re-exported by the public facade as mod.ErrCorruptSnapshot.
var ErrCorruptSnapshot = errors.New("store: corrupt snapshot")

// ErrBadSyncMode marks an unrecognized sync-mode spelling passed to
// ParseSyncMode (the modserve -sync flag).  Classify with errors.Is.
var ErrBadSyncMode = errors.New("store: unknown sync mode")

// SyncMode is the durability barrier Flush applies at a commit point.
// The zero value is SyncOS, the historical behavior, so zero-valued
// configurations keep their guarantee.
type SyncMode int

const (
	// SyncOS flushes buffered records to the operating system (the page
	// cache for the file backend).  Acknowledged requests survive a
	// process crash (SIGKILL) but not a power loss.  The default.
	SyncOS SyncMode = iota
	// SyncNone makes Flush a no-op: records may sit in user-space
	// buffers, and acknowledged requests can be lost on a process crash.
	// The log on disk is still always a gap-free prefix of the admission
	// order, so a restore succeeds — it just resumes from an earlier
	// point, and may reissue ticket IDs the lost tail had acknowledged.
	SyncNone
	// SyncFull flushes and then fsyncs the WAL file, so acknowledged
	// requests survive power loss.  Group commit amortizes the fsync over
	// a batch of acknowledgements, which is what makes this affordable.
	SyncFull
)

// String reports the flag spelling used by modserve -sync.
func (m SyncMode) String() string {
	switch m {
	case SyncNone:
		return "none"
	case SyncFull:
		return "full"
	default:
		return "os"
	}
}

// ParseSyncMode parses the modserve -sync flag spelling.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "os", "":
		return SyncOS, nil
	case "full":
		return SyncFull, nil
	}
	return SyncOS, fmt.Errorf("%w: %q (want none, os, or full)", ErrBadSyncMode, s)
}

// Store persists per-shard snapshots and write-ahead logs.  Shards are
// identified by their integer index; implementations must be safe for
// concurrent use by one writer goroutine per shard plus a restore reader.
type Store interface {
	// SaveSnapshot atomically replaces shard's snapshot with data (an
	// opaque blob, typically an Encoder.Finish result).  Records already
	// covered by the snapshot are logically superseded; implementations
	// truncate the shard's WAL, and replay additionally skips stale
	// sequence numbers so the two steps need not be atomic together.
	SaveSnapshot(shard int, data []byte) error
	// LoadSnapshot returns the latest snapshot saved for shard, or
	// (nil, nil) when none exists.
	LoadSnapshot(shard int) ([]byte, error)
	// AppendWAL appends one record to shard's write-ahead log.  The store
	// frames and copies the bytes; the caller may reuse rec immediately.
	// Appended records may be buffered until Flush.  The serve layer
	// never calls it — it writes only through AppendWALBatch — but it
	// stays in the interface for stores that wrap another and forward
	// every entry point, such as the benchmark module's tracedStore.
	AppendWAL(shard int, rec []byte) error
	// AppendWALBatch appends a run of records to shard's write-ahead log
	// in order, equivalent to one AppendWAL call per record.  It is the
	// serve layer's only write path: its group-commit writer lands a
	// whole batch with one call before a single Flush.  On error, a
	// prefix of the records may have been appended.
	AppendWALBatch(shard int, recs [][]byte) error
	// Flush commits every record appended to shard's WAL at the given
	// sync level — the group-commit barrier the serve layer issues once
	// per batch, before releasing the batch's acknowledgements
	// (log-before-ack).  SyncNone is a no-op, SyncOS reaches the
	// operating system, SyncFull additionally fsyncs.
	Flush(shard int, mode SyncMode) error
	// ReplayWAL calls fn for each record appended to shard's WAL since the
	// last SaveSnapshot, in append order, stopping at the first error.  A
	// torn final frame (crash mid-append) ends replay silently; a complete
	// frame with a checksum mismatch fails with ErrCorruptSnapshot.
	// Replay on a live store sees records not yet flushed: buffering only
	// models what a crash would lose, never what the process can read.
	ReplayWAL(shard int, fn func(rec []byte) error) error
	// Close releases the store's resources (file handles, buffers).
	Close() error
}
