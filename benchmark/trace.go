package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/store"
)

// The traced run records a span at each layer boundary the benchmark can
// reach from its own files: a pass-through store.Store decorator, a
// wrapper around serve.Handler, and the benchmark's own calls into the
// server and the live and offline layers.  Spans go into a preallocated
// buffer and are written once, when the run ends; per-name counts and
// sums are kept beside them, so ratios are exact even if the buffer
// fills.

type spanName uint8

const (
	spanWindow spanName = iota
	spanServeNew
	spanSubmitBatch
	spanDrain
	spanHTTPAdmit
	spanHTTPRead
	spanAppendWAL
	spanAppendWALBatch
	spanFlush
	spanSaveSnapshot
	spanLoadSnapshot
	spanReplayWAL
	spanStoreClose
	spanLiveDrive
	spanOfflineEpoch
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"window",
	"serve.New",
	"serve.SubmitBatch",
	"serve.Drain",
	"serve.http.admit",
	"serve.http.read",
	"store.AppendWAL",
	"store.AppendWALBatch",
	"store.Flush",
	"store.SaveSnapshot",
	"store.LoadSnapshot",
	"store.ReplayWAL",
	"store.Close",
	"live.drive",
	"offline.epoch",
}

// span is one timed call.  arg is the unit of work the call carried:
// records appended or replayed, snapshot bytes, admissions driven, DP
// cells filled.
type span struct {
	start, end int64 // ns since the recorder's origin
	req        int64 // trace index of the request, -1 when none
	arg        int64
	parent     int32 // index of the enclosing span, -1 at top level
	name       spanName
	failed     bool
}

// spanTotals aggregates every call of one span name, recorded or not.
type spanTotals struct {
	n, ns, arg, errs int64
}

type recorder struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	totals  [numSpanNames]spanTotals
	// open is the stack of spans begun by the orchestrating goroutine;
	// spans recorded on any goroutine take its top as their parent.
	open []int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// nowOr0 is now on a traced pass and 0 on an untraced one.
func (r *recorder) nowOr0() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

func (r *recorder) parentLocked() int32 {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// record adds a finished span.
func (r *recorder) record(name spanName, start, end, req, arg int64, err error) {
	r.mu.Lock()
	t := &r.totals[name]
	t.n++
	t.ns += end - start
	t.arg += arg
	if err != nil {
		t.errs++
	}
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, span{start: start, end: end, req: req, arg: arg, parent: r.parentLocked(), name: name, failed: err != nil})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// begin opens a span that later spans nest under until end closes it.
// Only the orchestrating goroutine opens spans, so they nest properly.
// begin and end are no-ops on a nil recorder (an untraced pass).
func (r *recorder) begin(name spanName, req int64) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		r.open = append(r.open, r.parentLocked())
		return -1
	}
	r.spans = append(r.spans, span{start: r.now(), end: -1, req: req, parent: r.parentLocked(), name: name})
	i := int32(len(r.spans) - 1)
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32, name spanName, arg int64, err error) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.open = r.open[:len(r.open)-1]
	t := &r.totals[name]
	t.n++
	t.arg += arg
	if err != nil {
		t.errs++
	}
	if i < 0 {
		return
	}
	s := &r.spans[i]
	s.end = end
	s.arg = arg
	s.failed = err != nil
	t.ns += end - s.start
}

// snapshotTotals copies the per-name aggregates.
func (r *recorder) snapshotTotals() [numSpanNames]spanTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals
}

// durations returns the durations, in ns, of recorded spans of one name
// whose start lies in [from, to).
func (r *recorder) durations(name spanName, from, to int64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.name == name && s.end >= 0 && s.start >= from && s.start < to {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// byRequest maps request ids to span durations (ns) for one span name
// within [from, to).
func (r *recorder) byRequest(name spanName, from, to int64) map[int64]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int64]int64)
	for _, s := range r.spans {
		if s.name == name && s.end >= 0 && s.start >= from && s.start < to {
			out[s.req] = s.end - s.start
		}
	}
	return out
}

// selfTimes returns, per span name, the total duration and self time of
// recorded spans: a span's self time is its duration minus the part of
// it that its children's intervals cover.
func (r *recorder) selfTimes() (total, self [numSpanNames]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range r.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		total[s.name] += d
		self[s.name] += d - covered(children[int32(i)], s.start, s.end)
	}
	return total, self
}

// covered is the length of the union of intervals clipped to [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// writeSpans writes every recorded span as CSV.
func (r *recorder) writeSpans(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,parent,name,req,start_ns,end_ns,arg,failed")
	var b []byte
	for i, s := range r.spans {
		b = strconv.AppendInt(b[:0], int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, ',')
		b = append(b, spanNames[s.name]...)
		for _, v := range []int64{s.req, s.start, s.end, s.arg} {
			b = append(b, ',')
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ',')
		b = strconv.AppendBool(b, s.failed)
		b = append(b, '\n')
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(r.spans), f.Close()
}

// tracedHandler times every HTTP call into serve.Handler and tags it
// with the generator's request id; responses pass through unchanged.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
	if err != nil {
		id = -1
	}
	name := spanHTTPAdmit
	if r.Method == http.MethodGet {
		name = spanHTTPRead
	}
	start := h.rec.now()
	h.next.ServeHTTP(w, r)
	h.rec.record(name, start, h.rec.now(), id, 0, nil)
}

// tracedStore is a pass-through store.Store decorator: it times and
// counts every call and returns results and errors unchanged.
type tracedStore struct {
	inner store.Store
	rec   *recorder
}

var _ store.Store = (*tracedStore)(nil)

func (s *tracedStore) SaveSnapshot(shard int, data []byte) error {
	start := s.rec.now()
	err := s.inner.SaveSnapshot(shard, data)
	s.rec.record(spanSaveSnapshot, start, s.rec.now(), -1, int64(len(data)), err)
	return err
}

func (s *tracedStore) LoadSnapshot(shard int) ([]byte, error) {
	start := s.rec.now()
	data, err := s.inner.LoadSnapshot(shard)
	s.rec.record(spanLoadSnapshot, start, s.rec.now(), -1, int64(len(data)), err)
	return data, err
}

func (s *tracedStore) AppendWAL(shard int, rec []byte) error {
	start := s.rec.now()
	err := s.inner.AppendWAL(shard, rec)
	s.rec.record(spanAppendWAL, start, s.rec.now(), -1, 1, err)
	return err
}

func (s *tracedStore) AppendWALBatch(shard int, recs [][]byte) error {
	start := s.rec.now()
	err := s.inner.AppendWALBatch(shard, recs)
	s.rec.record(spanAppendWALBatch, start, s.rec.now(), -1, int64(len(recs)), err)
	return err
}

func (s *tracedStore) Flush(shard int, mode store.SyncMode) error {
	start := s.rec.now()
	err := s.inner.Flush(shard, mode)
	s.rec.record(spanFlush, start, s.rec.now(), -1, 0, err)
	return err
}

func (s *tracedStore) ReplayWAL(shard int, fn func(rec []byte) error) error {
	var n int64
	start := s.rec.now()
	err := s.inner.ReplayWAL(shard, func(rec []byte) error {
		n++
		return fn(rec)
	})
	s.rec.record(spanReplayWAL, start, s.rec.now(), -1, n, err)
	return err
}

func (s *tracedStore) Close() error {
	start := s.rec.now()
	err := s.inner.Close()
	s.rec.record(spanStoreClose, start, s.rec.now(), -1, 0, err)
	return err
}

// spanSummary prints, per span name, the call count, total and self time.
func (r *recorder) spanSummary(w io.Writer, prefix string) {
	totals := r.snapshotTotals()
	total, self := r.selfTimes()
	for i := spanName(0); i < numSpanNames; i++ {
		t := totals[i]
		if t.n == 0 {
			continue
		}
		fmt.Fprintf(w, "%s span %-22s calls=%-8d total_ms=%-10.3f recorded_ms=%-10.3f self_ms=%-10.3f arg=%d errors=%d\n",
			prefix, spanNames[i], t.n, ms(time.Duration(t.ns)), ms(time.Duration(total[i])), ms(time.Duration(self[i])), t.arg, t.errs)
	}
}
