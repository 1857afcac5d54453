package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"

	"repro/internal/bandwidth"
	"repro/internal/live"
	"repro/internal/multiobject"
	"repro/internal/stats"
	"repro/internal/store"
)

// Durability wiring.  With Config.Store set, each shard gains a companion
// WAL-writer goroutine and a typed channel to it, and the shard loop
// routes every admission through a group-commit log-before-ack
// discipline:
//
//  1. For each submission — one Submit's request, or a SubmitBatch's
//     whole share of the shard — the loop admits every entry and fills
//     its WAL record (sequence number, catalog index, clamp-free
//     timestamp, the admission decision taken), then sends the submission
//     down the writer channel as ONE walSubmit message.
//  2. The writer drains the channel greedily — a blocking receive, then
//     non-blocking receives until the channel is empty — appends every
//     pending record with one AppendWALBatch, performs ONE Flush for the
//     whole batch at Config.SyncMode, and only then releases the batch's
//     acknowledgements in FIFO order.
//
// The channel is FIFO and acks release only after the records ahead of
// them are committed, so the durable log is always a gap-free prefix of
// the admission order covering every acknowledged request: a crash can
// lose unacknowledged tail requests (whose submitters never got tickets)
// but never an acknowledged one.  Under load, N acknowledgements share
// one flush (Stats.WALFlushes counts them; TestGroupCommitCoalesces pins
// flushes < acks) — which is also what makes store.SyncFull affordable:
// one fsync amortized over the batch.  The admit hot path itself
// allocates nothing extra — the record is a fixed-size array inside the
// channel message
// (BenchmarkShardAdmitDurable, BenchmarkShardAdmitDurableBatch, and the
// CI allocation guard pin 0 allocs/op with durability on).
//
// Snapshots ride the same channel (walSnapshot) and act as in-batch
// barriers: the writer lands the record run accumulated so far, then
// saves the snapshot — which truncates the WAL — so it can never
// truncate a record it doesn't cover.  The loop only copies its state
// into a reusable shardSnapshotState; the codec runs on the writer
// goroutine with a pooled Encoder, so a cadence snapshot no longer
// stalls admission for the encode.  The file backend's crash window
// between snapshot rename and WAL truncation is closed by sequence
// numbers instead: replay skips records below the snapshot's next
// sequence.  Replay applies each record's logged decision instead of
// asking the admission controller, whose server-wide gauge a restore
// cannot reproduce.  Close sends one last walSnapshot per shard once the
// loops have exited (checkpoint), so a restart after a clean stop loads
// it and replays nothing; only a crash leaves a WAL tail to replay.
//
// Store failures favor availability over durability: the writer counts
// them (Stats.WALFailures) and still acknowledges, so a full disk
// degrades the durability guarantee rather than wedging admission.  A
// failed append additionally leaves a sequence gap in the log that would
// fail every restore until the log is truncated, so the writer flags the
// shard and the next admission forces an immediate repair snapshot —
// SaveSnapshot truncates the WAL, re-establishing a consistent base one
// admission after the hiccup instead of a full cadence later.  (If the
// repair snapshot itself fails, the flag re-arms and the next admission
// retries.)

// walRecSize is the fixed WAL record layout: sequence number (8),
// catalog object index (4), raw request timestamp as float bits (8), and
// the admission decision (1, an index into walDecisions).  Logs of the
// 20-byte layout without the decision are refused as corrupt.
const walRecSize = 8 + 4 + 8 + 1

// walDecisions maps a record's decision byte to its Decision.
var walDecisions = [...]Decision{Admitted, Degraded, Rejected}

// encodeWALRecord lays out one WAL record: the request's shard-local
// sequence number, its object's catalog index, its raw timestamp, and
// the decision its admission took.
//
//modlint:noalloc
func encodeWALRecord(seq int64, objIdx int, t float64, d Decision) (rec [walRecSize]byte) {
	binary.LittleEndian.PutUint64(rec[0:8], uint64(seq))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(objIdx))
	binary.LittleEndian.PutUint64(rec[12:20], math.Float64bits(t))
	for i, w := range walDecisions {
		if d == w {
			rec[20] = byte(i)
		}
	}
	return rec
}

// decodeWALRecord reads back a record encodeWALRecord wrote; rec must be
// walRecSize bytes long.  A decision byte out of range decodes as "".
func decodeWALRecord(rec []byte) (seq int64, objIdx int, t float64, d Decision) {
	if int(rec[20]) < len(walDecisions) {
		d = walDecisions[rec[20]]
	}
	return int64(binary.LittleEndian.Uint64(rec[0:8])),
		int(binary.LittleEndian.Uint32(rec[8:12])),
		math.Float64frombits(binary.LittleEndian.Uint64(rec[12:20])), d
}

// walMaxBatch caps one group commit's batch so accretion under sustained
// overload cannot defer the flush (and the acknowledgements behind it)
// indefinitely.
const walMaxBatch = 1024

// walKind discriminates the messages on a shard's WAL channel.
type walKind uint8

const (
	// walSubmit: one submission the loop admitted; every record of sub
	// joins the commit's append run, and sub.done is signalled after the
	// flush.
	walSubmit walKind = iota
	// walSnapshot: encode snap and save it as the shard's snapshot
	// (truncating the WAL); errc, when non-nil, receives the result.
	walSnapshot
)

// walMsg is one message from a shard loop to its WAL writer.  A
// walSubmit carries its submission's records in the submitter's message,
// whose recs are fixed-size arrays filled in place, so handing them to
// the writer allocates nothing.
type walMsg struct {
	kind walKind
	sub  *submitMsg
	snap *shardSnapshotState
	errc chan error
	// repair marks a walSnapshot forced by a prior append failure; if
	// saving it fails too, the writer re-arms the shard's repair flag.
	repair bool
}

// snapshotMsg asks a shard loop to snapshot now; the writer answers on
// reply once the snapshot is saved (or fails).
type snapshotMsg struct {
	reply chan error
}

// walCommit is one writer's reusable commit state: the drained messages,
// the append run under assembly, and the dirty flag tracking records
// appended to the store but not yet flushed (carried across commits, so
// record-only commits defer their flush to the first commit that
// actually acknowledges something).
type walCommit struct {
	pend  []walMsg
	recs  [][]byte
	dirty bool
}

// walWriter drains one shard's WAL channel.  It is a Server method (not
// a shard method) because it runs on its own goroutine, off the shard
// loop; the shard loop is the channel's only sender and closes it at
// shutdown, after which the writer commits what it holds and exits.
//
// This is the group-commit loop: one blocking receive starts a batch,
// greedy non-blocking receives extend it with everything already queued,
// and commit lands the whole batch with a single append run and at most
// one Flush before releasing its acknowledgements in FIFO order.
func (s *Server) walWriter(sh *shard) {
	defer s.walWG.Done()
	w := &walCommit{}
	for {
		m, ok := <-sh.walCh
		if !ok {
			return
		}
		w.pend = append(w.pend, m)
		open := true
		grew := true
	gather:
		for len(w.pend) < walMaxBatch {
			select {
			case m2, ok2 := <-sh.walCh:
				if !ok2 {
					open = false
					break gather
				}
				w.pend = append(w.pend, m2)
				grew = true
			default:
				// The channel is empty.  Yield the processor once per
				// growth spurt before committing: submitters woken by the
				// previous batch's acks get to enqueue their next requests,
				// so the batch accretes toward the in-flight cohort instead
				// of committing one record at a time when the scheduler
				// alternates producer and writer.  An unproductive yield
				// (no new message) commits, so an idle writer adds one
				// yield of latency.
				if !grew {
					break gather
				}
				grew = false
				runtime.Gosched()
			}
		}
		s.commit(sh, w)
		if !open {
			return
		}
	}
}

// commit lands one drained batch: records are gathered into append runs
// (a walSnapshot acts as a barrier — the run so far lands, then the
// snapshot saves, superseding it), the store is flushed at most once if
// anything dirty needs acknowledging, and only then are the batch's
// acknowledgements released in FIFO order.  That ordering is the
// durability contract: by the time any submitter in the batch holds a
// ticket, every record up to and including its own is committed at the
// configured sync level.
func (s *Server) commit(sh *shard, w *walCommit) {
	w.recs = w.recs[:0]
	acks := false
	for i := range w.pend {
		m := &w.pend[i]
		switch m.kind {
		case walSubmit:
			for j := range m.sub.recs {
				w.recs = append(w.recs, m.sub.recs[j][:])
			}
			acks = true
		case walSnapshot:
			s.appendRun(sh, w)
			// The snapshot covers every record before it in the batch (it
			// was captured after those admissions on the loop), and
			// SaveSnapshot truncates the WAL — nothing appended so far
			// needs a flush of its own, unless the save fails.
			if s.writeSnapshot(sh, m) {
				w.dirty = false
			}
		}
	}
	s.appendRun(sh, w)
	if acks && w.dirty {
		if err := s.cfg.Store.Flush(sh.id, s.cfg.SyncMode); err != nil {
			// A failed flush may lose the records it was to commit (the
			// file store drops its broken buffer), leaving a sequence
			// gap: repair it like a failed append.
			s.walFailures.Add(1)
			s.walRepair[sh.id].Store(true)
		}
		s.walFlushes.Add(1)
		w.dirty = false
	}
	for i := range w.pend {
		if m := &w.pend[i]; m.kind == walSubmit {
			m.sub.done <- struct{}{}
		}
	}
	w.pend = w.pend[:0]
}

// appendRun lands the commit's accumulated records with one batch append.
// A failed append may leave a sequence gap (a prefix can land), so the
// shard is flagged for a repair snapshot either way; the run still counts
// as dirty — flushing a partial prefix is harmless and keeps the on-disk
// bytes a prefix of admission order.
func (s *Server) appendRun(sh *shard, w *walCommit) {
	if len(w.recs) == 0 {
		return
	}
	if err := s.cfg.Store.AppendWALBatch(sh.id, w.recs); err != nil {
		s.walFailures.Add(1)
		s.walRepair[sh.id].Store(true)
	}
	w.dirty = true
	w.recs = w.recs[:0]
}

// writeSnapshot runs the snapshot codec on the writer goroutine — the
// loop only captured plain state — with a pooled Encoder, then saves the
// blob and recycles the capture buffer back to the shard's free list.
// Only once the save succeeded does it publish the frontier and ticket
// sequence captured with the snapshot, which may advance the durable
// settle point, and wake the settler.  It reports whether the save
// succeeded.
func (s *Server) writeSnapshot(sh *shard, m *walMsg) bool {
	if s.walEnc[sh.id] == nil {
		s.walEnc[sh.id] = store.NewEncoder()
	} else {
		s.walEnc[sh.id].Reset()
	}
	enc := s.walEnc[sh.id]
	encodeSnapshotState(enc, m.snap)
	err := s.cfg.Store.SaveSnapshot(sh.id, enc.Finish())
	frontier, seq := m.snap.frontier, m.snap.ticketSeq
	sh.releaseSnapState(m.snap)
	if err != nil {
		s.walFailures.Add(1)
		if m.repair {
			s.walRepair[sh.id].Store(true)
		}
	} else {
		s.saved[sh.id].Store(math.Float64bits(frontier))
		s.savedSeq[sh.id].Store(seq)
		select {
		case s.settle <- struct{}{}:
		default:
		}
	}
	if m.errc != nil {
		m.errc <- err
	}
	return err == nil
}

// maybeSnapshot hands the writer a snapshot capture once the shard clock
// passes the next cadence boundary (Config.SnapshotEpochs epochs of
// EpochSlots slots of the shard's smallest delay), or immediately when
// the writer flagged a failed WAL append or flush — the repair snapshot
// truncates the gapped log so a later restore does not fail on the
// missing sequence.  The loop only copies state; the writer encodes.
func (sh *shard) maybeSnapshot() {
	if sh.walCh == nil {
		return
	}
	// A plain load keeps the common no-repair case off the locked
	// instruction; the CAS settles the race only when the flag is up.
	if sh.srv.walRepair[sh.id].Load() && sh.srv.walRepair[sh.id].CompareAndSwap(true, false) {
		sh.walCh <- walMsg{kind: walSnapshot, snap: sh.captureSnapshot(), repair: true}
		sh.nextSnap = sh.now + sh.snapEvery
		return
	}
	if sh.snapEvery <= 0 || sh.now < sh.nextSnap {
		return
	}
	sh.walCh <- walMsg{kind: walSnapshot, snap: sh.captureSnapshot()}
	sh.nextSnap = sh.now + sh.snapEvery
}

// checkpoint hands the writer the shard's final state as one more
// snapshot, so the next restore finds an empty WAL tail.  Close calls it
// after the loop has exited and before closing walCh: the writer lands
// every pending record, saves the capture and only then exits.  A drained
// shard is skipped, since a restore after Drain must reproduce the
// pre-drain state, and so is a shard whose last successful save covers
// its every admission.  A failed save covers nothing, so the checkpoint
// also repairs a log a failed append left gapped; a save still queued
// behind the loop's exit has not been published yet and is saved again.
func (sh *shard) checkpoint() {
	if sh.drained || sh.srv.savedSeq[sh.id].Load() == sh.ticketSeq {
		return
	}
	sh.walCh <- walMsg{kind: walSnapshot, snap: sh.captureSnapshot()}
}

// encodeTotals appends a live.Totals to the snapshot.
func encodeTotals(e *store.Encoder, t live.Totals) {
	e.I64(t.Clients)
	e.I64(t.Streams)
	e.I64(t.FinalizedStreams)
	e.I64(t.SlotUnits)
	e.F64(t.BusyTime)
	e.F64(t.Cost)
	e.I64(t.ReplanFailures)
	e.I64(t.Replan.Replans)
	e.I64(t.Replan.WarmReplans)
	e.I64(t.Replan.CellsReused)
	e.I64(t.Replan.CellsRecomputed)
	e.I64(t.Replan.ReplanNanos)
	e.I64(t.Replan.MaxReplanNanos)
}

func decodeTotals(d *store.Decoder) live.Totals {
	var t live.Totals
	t.Clients = d.I64()
	t.Streams = d.I64()
	t.FinalizedStreams = d.I64()
	t.SlotUnits = d.I64()
	t.BusyTime = d.F64()
	t.Cost = d.F64()
	t.ReplanFailures = d.I64()
	t.Replan.Replans = d.I64()
	t.Replan.WarmReplans = d.I64()
	t.Replan.CellsReused = d.I64()
	t.Replan.CellsRecomputed = d.I64()
	t.Replan.ReplanNanos = d.I64()
	t.Replan.MaxReplanNanos = d.I64()
	return t
}

func encodeHist(e *store.Encoder, h *stats.LogHistogram) {
	e.I64(h.Count)
	e.I64(h.SumNanos)
	e.U32(uint32(len(h.Counts)))
	for _, c := range h.Counts {
		e.I64(c)
	}
}

func decodeHist(d *store.Decoder, h *stats.LogHistogram) error {
	h.Count = d.I64()
	h.SumNanos = d.I64()
	if n := d.Len(8); n != len(h.Counts) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("%w: histogram with %d buckets (want %d)", store.ErrCorruptSnapshot, n, len(h.Counts))
	}
	for i := range h.Counts {
		h.Counts[i] = d.I64()
	}
	return d.Err()
}

// shardSnapshotState is a plain-data copy of everything a snapshot
// serializes, captured on the shard loop and encoded on the WAL writer.
// The split keeps the codec — the expensive part of a snapshot — off the
// admit path.  Instances cycle through the shard's snapFree list, so a
// steady snapshot cadence reuses two buffers instead of allocating
// fresh slices per capture.
type shardSnapshotState struct {
	id, total int
	now       float64
	ticketSeq int64
	admittedL int64
	degradedL int64
	rejectedL int64
	ends      []endEvent
	// durable, busy and intervals are the shard's durable settle point,
	// busy-time sum and kept set.  frontier is not encoded: the writer
	// publishes it once the save succeeds, and a restore recomputes it
	// from the restored schedulers.
	durable   settlePoint
	busy      float64
	intervals []bandwidth.Interval
	frontier  float64
	stages    []stageHist
	objects   []objectSnapState
}

// objectSnapState is one object's captured snapshot state.  live.Export
// deep-copies the scheduler's dynamic state (Times, Provisional), so the
// capture shares nothing with the live scheduler the loop keeps mutating.
type objectSnapState struct {
	name     string
	strategy string
	epoch    int
	scale    float64
	delay    float64
	L        int64
	arrivals int64
	rejected int64
	carry    live.Totals
	live     live.State
	// exportOK distinguishes a captured live state from an unexportable
	// scheduler, which encodes as a poison kind so restore fails loudly.
	exportOK bool
}

// takeSnapState pops a reusable capture buffer off the free list, or
// allocates one when the list is empty (or absent, on bench harnesses
// that wire durability by hand).
func (sh *shard) takeSnapState() *shardSnapshotState {
	if sh.snapFree != nil {
		select {
		case ss := <-sh.snapFree:
			return ss
		default:
		}
	}
	return &shardSnapshotState{}
}

// releaseSnapState returns a capture buffer to the free list once the
// writer has encoded it; an overfull (or absent) list drops the buffer.
func (sh *shard) releaseSnapState(ss *shardSnapshotState) {
	if sh.snapFree == nil || ss == nil {
		return
	}
	select {
	case sh.snapFree <- ss:
	default:
	}
}

// captureSnapshot copies the shard's full scheduler state — identity
// fingerprint, clock, ticket sequence, loop-owned counter mirrors, gauge
// end-event heap, durable settle point, busy-time sum and kept set,
// stage histograms, and per-object state (delay epoch, accounting carry,
// and the live scheduler's exported dynamic state) — and its frontier
// into a reusable capture buffer.
// It runs on the shard loop; encodeSnapshotState serializes the result
// on the writer goroutine.
func (sh *shard) captureSnapshot() *shardSnapshotState {
	ss := sh.takeSnapState()
	ss.id = sh.id
	ss.total = sh.total
	ss.now = sh.now
	ss.ticketSeq = sh.ticketSeq
	ss.admittedL = sh.admittedL
	ss.degradedL = sh.degradedL
	ss.rejectedL = sh.rejectedL
	// Heap-array order: restoring it verbatim reproduces the exact pop
	// order of the original run.
	ss.ends = append(ss.ends[:0], sh.ends...)
	ss.durable = sh.durable
	ss.busy = sh.busy
	ss.intervals = append(ss.intervals[:0], sh.kept...)
	ss.frontier = sh.frontier()
	// stageHist holds fixed-size value histograms, so this copies.
	ss.stages = append(ss.stages[:0], sh.stages...)
	ss.objects = ss.objects[:0]
	for _, st := range sh.objects {
		o := objectSnapState{
			name:     st.obj.Name,
			strategy: st.strategy,
			epoch:    st.epoch,
			scale:    st.scale,
			delay:    st.delay,
			L:        st.L,
			arrivals: st.arrivals,
			rejected: st.rejected,
			carry:    st.carry,
		}
		if ls, err := live.Export(st.sched); err == nil {
			o.live = ls
			o.exportOK = true
		}
		// Every registered strategy is exportable; an unexportable
		// scheduler would be a new strategy family missing its State
		// support.  exportOK stays false and the codec writes a poison
		// kind so restore fails loudly rather than silently dropping the
		// object's schedule.
		ss.objects = append(ss.objects, o)
	}
	return ss
}

// encodeSnapshotState serializes a captured shard state with the
// versioned store codec.  The encoding is deterministic: the same state
// always yields the same bytes.  Runs on the WAL writer goroutine.
func encodeSnapshotState(e *store.Encoder, ss *shardSnapshotState) {
	e.I64(int64(ss.id))
	e.I64(int64(ss.total))
	e.F64(ss.now)
	e.I64(ss.ticketSeq)
	e.I64(ss.admittedL)
	e.I64(ss.degradedL)
	e.I64(ss.rejectedL)

	e.U32(uint32(len(ss.ends)))
	for _, ev := range ss.ends {
		e.F64(ev.t)
		e.I64(int64(ev.delta))
	}

	e.F64(ss.durable.at)
	e.I64(int64(ss.durable.peak))
	e.F64(ss.busy)
	e.U32(uint32(len(ss.intervals)))
	for _, iv := range ss.intervals {
		e.F64(iv.Start)
		e.F64(iv.End)
	}

	e.U32(uint32(len(ss.stages)))
	for i := range ss.stages {
		encodeHist(e, &ss.stages[i].queue)
		encodeHist(e, &ss.stages[i].plan)
		encodeHist(e, &ss.stages[i].replan)
	}

	e.U32(uint32(len(ss.objects)))
	for i := range ss.objects {
		o := &ss.objects[i]
		e.String(o.name)
		e.String(o.strategy)
		e.I64(int64(o.epoch))
		e.F64(o.scale)
		e.F64(o.delay)
		e.I64(o.L)
		e.I64(o.arrivals)
		e.I64(o.rejected)
		encodeTotals(e, o.carry)
		if !o.exportOK {
			e.U8(0xff)
			continue
		}
		encodeLiveState(e, o.live)
	}
}

func encodeLiveState(e *store.Encoder, ls live.State) {
	switch {
	case ls.Online != nil:
		o := ls.Online
		e.U8(0)
		e.F64(o.Base)
		e.I64(o.Started)
		e.I64(o.Finalized)
		e.I64(o.LastArrival)
		e.I64(o.Clients)
		e.I64(o.Streams)
		e.I64(o.FinalizedStreams)
		e.I64(o.SlotUnits)
		e.F64(o.BusyTime)
	case ls.Epoch != nil:
		ep := ls.Epoch
		e.U8(1)
		e.F64(ep.Origin)
		e.I64(ep.Epoch)
		e.F64s(ep.Times)
		e.I64(ep.LastSlot)
		e.F64(ep.LastTime)
		e.I64(ep.SlotBase)
		e.F64s(ep.Provisional)
		encodeTotals(e, ep.Totals)
	default:
		e.U8(0xff)
	}
}

func decodeLiveState(d *store.Decoder, strategy string) (live.State, error) {
	ls := live.State{Strategy: strategy}
	switch kind := d.U8(); kind {
	case 0:
		o := &live.OnlineState{}
		o.Base = d.F64()
		o.Started = d.I64()
		o.Finalized = d.I64()
		o.LastArrival = d.I64()
		o.Clients = d.I64()
		o.Streams = d.I64()
		o.FinalizedStreams = d.I64()
		o.SlotUnits = d.I64()
		o.BusyTime = d.F64()
		ls.Online = o
	case 1:
		ep := &live.EpochState{}
		ep.Origin = d.F64()
		ep.Epoch = d.I64()
		ep.Times = d.F64s()
		ep.LastSlot = d.I64()
		ep.LastTime = d.F64()
		ep.SlotBase = d.I64()
		ep.Provisional = d.F64s()
		ep.Totals = decodeTotals(d)
		ls.Epoch = ep
	default:
		if err := d.Err(); err != nil {
			return ls, err
		}
		return ls, fmt.Errorf("%w: unknown live state kind %d for strategy %q", store.ErrCorruptSnapshot, kind, strategy)
	}
	return ls, d.Err()
}

// decodeSnapshot reinstates a snapshot blob onto a freshly built shard
// (addObject done, loop not started).  The snapshot's identity
// fingerprint — shard index, shard count, object names and strategies in
// order — must match the server's configuration exactly; a snapshot
// taken under a different catalog or sharding is refused as corrupt
// rather than partially applied.
func (sh *shard) decodeSnapshot(blob []byte) error {
	d, err := store.NewDecoder(blob)
	if err != nil {
		return err
	}
	if id := d.I64(); id != int64(sh.id) {
		return mismatch(d, "snapshot for shard %d restored onto shard %d", id, sh.id)
	}
	if total := d.I64(); total != int64(sh.total) {
		return mismatch(d, "snapshot taken with %d shards, server has %d", total, sh.total)
	}
	now := d.F64()
	seq := d.I64()
	admitted := d.I64()
	degraded := d.I64()
	rejected := d.I64()

	nEnds := d.Len(16)
	ends := make([]endEvent, 0, nEnds)
	var gaugeDelta int64
	for i := 0; i < nEnds; i++ {
		t := d.F64()
		delta := int32(d.I64())
		ends = append(ends, endEvent{t: t, delta: delta})
		gaugeDelta += int64(delta)
	}

	durable := settlePoint{at: d.F64(), peak: int(d.I64())}
	busy := d.F64()
	kept := make([]bandwidth.Interval, d.Len(16))
	for i := range kept {
		kept[i].Start = d.F64()
		kept[i].End = d.F64()
	}

	nStages := d.Len(8)
	if d.Err() == nil && nStages != len(sh.stages) {
		return mismatch(d, "snapshot has %d stage sets, shard has %d", nStages, len(sh.stages))
	}
	stages := make([]stageHist, nStages)
	for i := range stages {
		for _, h := range [](*stats.LogHistogram){&stages[i].queue, &stages[i].plan, &stages[i].replan} {
			if err := decodeHist(d, h); err != nil {
				return err
			}
		}
	}

	nObjs := d.Len(1)
	if d.Err() == nil && nObjs != len(sh.objects) {
		return mismatch(d, "snapshot has %d objects, shard has %d", nObjs, len(sh.objects))
	}
	scheds := make([]live.Incremental, len(sh.objects))
	for i := 0; i < nObjs && d.Err() == nil; i++ {
		st := sh.objects[i]
		if name := d.String(); name != st.obj.Name {
			return mismatch(d, "snapshot object %d is %q, shard has %q", i, name, st.obj.Name)
		}
		if strat := d.String(); strat != st.strategy {
			return mismatch(d, "snapshot object %q uses strategy %q, shard uses %q", st.obj.Name, strat, st.strategy)
		}
		epoch := int(d.I64())
		scale := d.F64()
		delay := d.F64()
		L := d.I64()
		arrivals := d.I64()
		objRejected := d.I64()
		carry := decodeTotals(d)
		ls, err := decodeLiveState(d, st.strategy)
		if err != nil {
			return err
		}
		sched, err := sh.restoreScheduler(st.obj, st.strategy, delay, ls)
		if err != nil {
			return fmt.Errorf("%w: object %q: %w", store.ErrCorruptSnapshot, st.obj.Name, err)
		}
		st.epoch = epoch
		st.scale = scale
		st.delay = delay
		st.L = L
		st.arrivals = arrivals
		st.rejected = objRejected
		st.carry = carry
		scheds[i] = sched
	}
	if err := d.Done(); err != nil {
		return err
	}

	// Everything validated and decoded: commit.  (Scheduler swaps were
	// already written above; the scalar state follows only now, but a
	// failed decode aborts New entirely, so no half-restored shard ever
	// serves.)
	for i, sched := range scheds {
		if sched != nil {
			sh.objects[i].sched = sched
		}
	}
	sh.now = now
	sh.ticketSeq = seq
	sh.admittedL = admitted
	sh.degradedL = degraded
	sh.rejectedL = rejected
	sh.srv.admitted.Add(admitted)
	sh.srv.degraded.Add(degraded)
	sh.srv.rejected.Add(rejected)
	sh.ends = ends
	// Each pending end event retires one live channel: the restored gauge
	// contribution is minus the heap's summed deltas.
	sh.srv.gauge.Add(-gaugeDelta)
	// The kept set comes back unfolded: the server's first fold re-adds it
	// to a tracker resumed at the largest durable settle point.
	sh.durable = durable
	sh.busy = busy
	sh.kept = kept
	sh.settleAt = max(settleFloor, 2*len(kept))
	copy(sh.stages, stages)
	return nil
}

// mismatch drains the decoder's sticky error first (a corrupted length
// can masquerade as a fingerprint mismatch) and otherwise reports the
// configuration mismatch itself as corruption.
func mismatch(d *store.Decoder, format string, args ...any) error {
	if err := d.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%w: "+format, append([]any{store.ErrCorruptSnapshot}, args...)...)
}

// restoreScheduler rebuilds an object's live scheduler from exported
// state, with the configuration newScheduler uses at the restored
// effective delay.
func (sh *shard) restoreScheduler(obj multiobject.Object, strategy string, delay float64, ls live.State) (live.Incremental, error) {
	return live.Restore(strategy, sh.liveConfig(obj, delay), ls)
}

// restore loads the shard's latest snapshot and replays the WAL tail
// through the admit path's state transition.  It runs during New, before
// the shard loop or WAL writer exist, so it owns all shard state.  Replay
// calls apply directly, unmetered and with each record's logged decision
// — no record is encoded, since the records being applied are already in
// the log, and no ticket is built, since nobody waits for one.  It
// returns the shard's frontier and ticket sequence as of the snapshot:
// its saved frontier and saved sequence.
func (sh *shard) restore() (saved float64, savedSeq int64, err error) {
	st := sh.srv.cfg.Store
	blob, err := st.LoadSnapshot(sh.id)
	if err != nil {
		return 0, 0, fmt.Errorf("serve: load snapshot for shard %d: %w", sh.id, err)
	}
	if blob != nil {
		if err := sh.decodeSnapshot(blob); err != nil {
			return 0, 0, fmt.Errorf("serve: restore shard %d: %w", sh.id, err)
		}
	}
	saved, savedSeq = sh.frontier(), sh.ticketSeq
	err = st.ReplayWAL(sh.id, func(rec []byte) error {
		if len(rec) != walRecSize {
			return fmt.Errorf("%w: WAL record of %d bytes (want %d)", store.ErrCorruptSnapshot, len(rec), walRecSize)
		}
		seq, objIdx, t, decision := decodeWALRecord(rec)
		if seq < sh.ticketSeq {
			// Superseded by the snapshot: the file backend's crash window
			// between snapshot rename and WAL truncation leaves these
			// behind; they were already applied before the snapshot.
			return nil
		}
		if seq != sh.ticketSeq {
			return fmt.Errorf("%w: WAL sequence gap on shard %d: record %d, expected %d", store.ErrCorruptSnapshot, sh.id, seq, sh.ticketSeq)
		}
		if objIdx < 0 || objIdx >= len(sh.srv.cfg.Catalog) {
			return fmt.Errorf("%w: WAL record for catalog index %d (catalog has %d)", store.ErrCorruptSnapshot, objIdx, len(sh.srv.cfg.Catalog))
		}
		name := sh.srv.cfg.Catalog[objIdx].Name
		obj := sh.byName[name]
		if obj == nil {
			return fmt.Errorf("%w: WAL record for object %q not routed to shard %d", store.ErrCorruptSnapshot, name, sh.id)
		}
		if decision == "" {
			return fmt.Errorf("%w: WAL record %d on shard %d has decision byte %d", store.ErrCorruptSnapshot, seq, sh.id, rec[20])
		}
		sh.apply(obj, t, false, decision)
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("serve: replay WAL for shard %d: %w", sh.id, err)
	}
	return saved, savedSeq, nil
}

// Snapshot forces an immediate snapshot of every shard and waits until
// each is saved.  It is the synchronous form of the periodic cadence —
// the HTTP layer exposes it as POST /v1/admin/snapshot — and bounds the
// WAL tail a crash restart replays.  A graceful stop needs none: Close
// checkpoints every shard itself.
//
// The request fans out to all shards concurrently before collecting any
// reply, so the wall time is one shard's capture+encode+save, not the
// sum across shards.  The first failure is reported (by lowest shard
// index); later shards still finish their snapshots — each reply channel
// is buffered, so no writer blocks on an abandoned reply.
func (s *Server) Snapshot() error {
	if s.cfg.Store == nil {
		return fmt.Errorf("%w: server has no durability store", ErrBadConfig)
	}
	replies := make([]chan error, len(s.shards))
	for i, sh := range s.shards {
		replies[i] = make(chan error, 1)
		select {
		case sh.msgs <- snapshotMsg{reply: replies[i]}:
		case <-s.quit:
			replies[i] = nil
		}
	}
	var first error
	for i, sh := range s.shards {
		if replies[i] == nil {
			if first == nil {
				first = ErrClosed
			}
			continue
		}
		select {
		case err := <-replies[i]:
			if err != nil && first == nil {
				first = fmt.Errorf("serve: snapshot shard %d: %w", sh.id, err)
			}
		case <-s.quit:
			if first == nil {
				first = ErrClosed
			}
		}
	}
	return first
}
