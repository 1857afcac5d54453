package store

import "sync"

// Mem is the in-memory Store: snapshots and WALs live in process memory.
// It backs tests and benchmarks, and the crash-recovery tests in
// particular, where Clone stands in for "the bytes on disk at the instant
// of a SIGKILL" — a deterministic kill point no real crash can provide.
//
// The crash model mirrors the file backend's buffered writer: appends
// land in a per-shard pending buffer and Flush publishes them to the
// durable log; Clone copies only the published bytes, so records not yet
// committed at the kill point are lost, exactly like bytes still in a
// user-space buffer.  Memory writes are instantaneous, so every SyncMode
// behaves like SyncOS here — the mode axis only changes behavior on the
// file backend.
//
// Each shard's WAL is kept as contiguous framed byte slices, so a
// steady stream of appends costs only amortized slice growth:
// the durable admit path stays 0 allocs/op under -benchmem
// (BenchmarkShardAdmitDurable and the CI allocation guard pin this).
type Mem struct {
	mu    sync.Mutex
	snaps map[int][]byte
	wals  map[int][]byte
	// pending holds framed records appended but not yet flushed — the
	// in-memory stand-in for the file backend's bufio buffer.
	pending map[int][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{snaps: make(map[int][]byte), wals: make(map[int][]byte),
		pending: make(map[int][]byte)}
}

// SaveSnapshot implements Store: the snapshot is replaced and the
// shard's WAL truncated, pending records included (every record appended
// before the snapshot message is superseded by it).
func (m *Mem) SaveSnapshot(shard int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snaps[shard] = append([]byte(nil), data...)
	m.wals[shard] = m.wals[shard][:0]
	m.pending[shard] = m.pending[shard][:0]
	return nil
}

// LoadSnapshot implements Store.
func (m *Mem) LoadSnapshot(shard int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.snaps[shard]
	if !ok {
		return nil, nil
	}
	return append([]byte(nil), data...), nil
}

// AppendWAL implements Store as a one-record AppendWALBatch.
func (m *Mem) AppendWAL(shard int, rec []byte) error {
	return m.AppendWALBatch(shard, [][]byte{rec})
}

// AppendWALBatch implements Store: the records land in the pending
// buffer until the next Flush publishes them.
func (m *Mem) AppendWALBatch(shard int, recs [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	buf := m.pending[shard]
	for _, rec := range recs {
		buf = appendFrame(buf, rec)
	}
	m.pending[shard] = buf
	return nil
}

// Flush implements Store: pending records become part of the durable
// log (the bytes Clone captures).  Memory commits are instantaneous, so
// the sync mode changes nothing here; see the type comment.
func (m *Mem) Flush(shard int, mode SyncMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.pending[shard]; len(p) > 0 {
		m.wals[shard] = append(m.wals[shard], p...)
		m.pending[shard] = p[:0]
	}
	return nil
}

// ReplayWAL implements Store: published and pending records alike — an
// in-process reader sees every appended record, like the file backend's
// internal flush before reading.
func (m *Mem) ReplayWAL(shard int, fn func(rec []byte) error) error {
	m.mu.Lock()
	buf := append([]byte(nil), m.wals[shard]...)
	buf = append(buf, m.pending[shard]...)
	m.mu.Unlock()
	return walkFrames(buf, fn)
}

// Close implements Store.
func (m *Mem) Close() error { return nil }

// Clone deep-copies the store's *committed* state: the crash-recovery
// tests take a Clone at the kill point and restore a fresh server from
// it, so the "disk image at SIGKILL" is exact and deterministic.
// Pending (appended but unflushed) records are deliberately dropped —
// they are the bytes a real crash loses from the user-space buffer.
func (m *Mem) Clone() *Mem {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMem()
	for k, v := range m.snaps {
		c.snaps[k] = append([]byte(nil), v...)
	}
	for k, v := range m.wals {
		c.wals[k] = append([]byte(nil), v...)
	}
	return c
}

// Snapshots reports how many shards currently hold a snapshot (test
// observability).
func (m *Mem) Snapshots() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, v := range m.snaps {
		if len(v) > 0 {
			n++
		}
	}
	return n
}

// WALBytes reports the framed size of one shard's WAL tail, pending
// records included (test observability).
func (m *Mem) WALBytes(shard int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.wals[shard]) + len(m.pending[shard])
}

// Corrupt flips one byte of shard's snapshot (test hook for the
// corruption-surfacing paths); it is a no-op when no snapshot exists.
func (m *Mem) Corrupt(shard int, offset int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.snaps[shard]; len(s) > 0 {
		s[offset%len(s)] ^= 0xff
	}
}
