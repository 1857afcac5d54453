package store

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// File is the file-backed Store: one snapshot file and one WAL file per
// shard under a single directory.
//
//	snapshot-<shard>.bin   the latest sealed snapshot blob
//	wal-<shard>.log        framed records appended since that snapshot
//
// Snapshots are written to a temporary file and renamed into place, so a
// crash during SaveSnapshot leaves the previous snapshot intact.  WAL
// appends go through a buffered writer committed by Flush — the
// group-commit log-before-ack barrier — at the caller's SyncMode:
// SyncNone leaves records in the user-space buffer (lost on SIGKILL),
// SyncOS flushes them to the kernel page cache (survives SIGKILL, the
// default), and SyncFull additionally fsyncs the file (survives power
// loss; group commit amortizes the fsync over a batch).  A crash can
// leave a torn final frame in the log; the first append of the next
// process trims the file back to its last complete frame so new records
// never land after torn bytes (see wal).  A failed write or flush drops
// the shard's handle (see dropWAL), so one transient fault does not
// fail every later append.
type File struct {
	dir string

	mu   sync.Mutex
	wals map[int]*walFile
}

// walFile is one shard's open WAL append handle.
type walFile struct {
	f *os.File
	w *bufio.Writer
	// frame is the reusable framing scratch buffer, so a steady append
	// stream does not allocate per record.
	frame []byte
}

// NewFile opens (creating if needed) a file store rooted at dir.
func NewFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create snapshot dir: %w", err)
	}
	return &File{dir: dir, wals: make(map[int]*walFile)}, nil
}

// Dir returns the store's root directory.
func (s *File) Dir() string { return s.dir }

func (s *File) snapPath(shard int) string {
	return filepath.Join(s.dir, fmt.Sprintf("snapshot-%d.bin", shard))
}

func (s *File) walPath(shard int) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%d.log", shard))
}

// SaveSnapshot implements Store: write-temp-then-rename, then truncate
// the shard's WAL.  A crash between the two steps leaves superseded
// records in the WAL; their sequence numbers predate the snapshot's, so
// replay skips them (the serve layer checks).
func (s *File) SaveSnapshot(shard int, data []byte) error {
	path := s.snapPath(shard)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if wf := s.wals[shard]; wf != nil {
		if err := wf.w.Flush(); err == nil {
			if err := wf.f.Truncate(0); err != nil {
				return fmt.Errorf("store: truncate WAL: %w", err)
			}
			return nil
		}
		// The snapshot supersedes whatever the failed flush held back.
		s.dropWAL(shard)
	}
	// No usable handle: drop the log, whether stale from a previous run
	// or behind a failed write.
	if err := os.Remove(s.walPath(shard)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: remove superseded WAL: %w", err)
	}
	return nil
}

// LoadSnapshot implements Store.
func (s *File) LoadSnapshot(shard int) ([]byte, error) {
	data, err := os.ReadFile(s.snapPath(shard))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	return data, nil
}

// wal returns shard's open WAL handle, opening it in append mode first
// if needed.  Callers hold s.mu.
//
// On the first open of a process lifetime the file may end in a torn
// frame left by the previous crash (bufio flushing a full buffer
// mid-frame).  Replay tolerates the tear, but appending after it would
// poison the log: the next restore would read a garbage length prefix
// spanning the torn bytes and the new records, and either refuse to
// start or silently drop every acknowledged record after the tear.  So
// the file is trimmed to its last complete frame before any append.
func (s *File) wal(shard int) (*walFile, error) {
	if wf := s.wals[shard]; wf != nil {
		return wf, nil
	}
	path := s.walPath(shard)
	if buf, err := os.ReadFile(path); err == nil {
		if keep := completeFramesLen(buf); keep < len(buf) {
			if err := os.Truncate(path, int64(keep)); err != nil {
				return nil, fmt.Errorf("store: trim torn WAL tail: %w", err)
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: inspect WAL: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open WAL: %w", err)
	}
	wf := &walFile{f: f, w: bufio.NewWriterSize(f, 1<<15)}
	s.wals[shard] = wf
	return wf, nil
}

// dropWAL closes and forgets shard's WAL handle after a failed write or
// flush.  bufio errors are sticky, so the handle would fail every later
// call; instead the records it still buffered are lost (the serve layer
// repairs that sequence gap with a snapshot), and the next append
// reopens the file through wal, trimming any torn frame the failure left.
// Callers hold s.mu.
func (s *File) dropWAL(shard int) {
	if wf := s.wals[shard]; wf != nil {
		wf.f.Close() // the handle already failed; its close error adds nothing
		delete(s.wals, shard)
	}
}

// AppendWAL implements Store as a one-record AppendWALBatch.
func (s *File) AppendWAL(shard int, rec []byte) error {
	return s.AppendWALBatch(shard, [][]byte{rec})
}

// AppendWALBatch implements Store: the whole run goes into the buffered
// writer under one lock acquisition.  On error a prefix may be appended,
// and the records buffered since the last Flush are dropped (dropWAL).
func (s *File) AppendWALBatch(shard int, recs [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	wf, err := s.wal(shard)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		wf.frame = appendFrame(wf.frame[:0], rec)
		if _, err := wf.w.Write(wf.frame); err != nil {
			s.dropWAL(shard)
			return fmt.Errorf("store: append WAL record: %w", err)
		}
	}
	return nil
}

// Flush implements Store: SyncNone does nothing, SyncOS hands buffered
// records to the operating system, SyncFull additionally fsyncs the file
// so the commit survives power loss (fdatasync semantics — Go's
// File.Sync is the portable spelling).
func (s *File) Flush(shard int, mode SyncMode) error {
	if mode == SyncNone {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	wf := s.wals[shard]
	if wf == nil {
		return nil
	}
	if err := wf.w.Flush(); err != nil {
		s.dropWAL(shard)
		return fmt.Errorf("store: flush WAL: %w", err)
	}
	if mode == SyncFull {
		if err := wf.f.Sync(); err != nil {
			s.dropWAL(shard)
			return fmt.Errorf("store: fsync WAL: %w", err)
		}
	}
	return nil
}

// flushOS spills the shard's user-space buffer to the OS regardless of
// the configured sync mode: in-process readers (ReplayWAL, the truncate
// in SaveSnapshot) must see every appended record — buffering only
// models what a crash would lose.
func (s *File) flushOS(shard int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wf := s.wals[shard]; wf != nil {
		if err := wf.w.Flush(); err != nil {
			s.dropWAL(shard)
			return fmt.Errorf("store: flush WAL: %w", err)
		}
	}
	return nil
}

// ReplayWAL implements Store.
func (s *File) ReplayWAL(shard int, fn func(rec []byte) error) error {
	if err := s.flushOS(shard); err != nil {
		return err
	}
	buf, err := os.ReadFile(s.walPath(shard))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read WAL: %w", err)
	}
	return walkFrames(buf, fn)
}

// Close implements Store: every open WAL handle is flushed and closed.
// The File must not be used afterwards.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for shard, wf := range s.wals {
		if err := wf.w.Flush(); err != nil && first == nil {
			first = fmt.Errorf("store: flush WAL on close: %w", err)
		}
		if err := wf.f.Close(); err != nil && first == nil {
			first = fmt.Errorf("store: close WAL: %w", err)
		}
		delete(s.wals, shard)
	}
	return first
}
