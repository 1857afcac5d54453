package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// The wire generator is the benchmark binary re-executed with
// loadgenEnv set: a separate OS process, so the server process's CPU
// accounting excludes it.  The server process writes a genConfig and
// then one phaseCmd per phase to its stdin as JSON lines; the generator
// answers each phase with one phaseResult line on stdout and exits at
// end of input.  It holds Conns keep-alive connections to the program
// and as many to the reference process's exchange; a closed-loop phase
// uses one set, and the open loop sends each program admission on the
// first and its paired reference admission on the second, so a backlog
// at the program never delays the reference.

// requestIDHeader carries the trace index of an admission (negative for
// reads), so server-side spans can be matched with client timings.
const requestIDHeader = "X-Request-Id"

// missedMS is the latency recorded for an admission that failed: a
// request that fails misses every latency limit.
const missedMS = 1e9

// readPaths are the operator reads a wire-durable run interleaves.
var readPaths = []string{"/v1/metrics", "/v1/stats"}

type genConfig struct {
	Addr     string  `json:"addr"`
	RefAddr  string  `json:"ref_addr"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Horizon  float64 `json:"horizon"`
	Conns    int     `json:"conns"`
}

// phaseCmd asks the generator to run one phase: Count admissions of the
// trace starting at index From, every ReadEvery-th operation replaced by
// a read.  Rate > 0 paces operations open-loop at Rate per second, every
// other one a reference admission (see opAt); Rate == 0 runs
// closed-loop, each connection of one set sending its next operation as
// soon as the previous one completes.
type phaseCmd struct {
	Name       string  `json:"name"`
	From       int     `json:"from"`
	Count      int     `json:"count"`
	Rate       float64 `json:"rate"`
	ReadEvery  int     `json:"read_every"`
	MaxSeconds float64 `json:"max_seconds"`
	// Reference sends a closed-loop phase to the reference exchange: its
	// admissions to refPath and its reads to refReadPath.
	Reference bool `json:"reference,omitempty"`
	// Raw asks for every admission latency and pacer lag, not only their
	// percentiles.
	Raw bool `json:"raw"`
	// PerRequest asks for each admission's send-to-response time keyed by
	// trace index, for the traced run's transport estimate.
	PerRequest bool `json:"per_request"`
}

type phaseResult struct {
	Name string `json:"name"`
	// Sent counts operations sent; each is either Answered correctly or
	// Failed (transport error, timeout, non-200, bad body, rejected ticket).
	Sent         int64 `json:"sent"`
	Answered     int64 `json:"answered"`
	Failed       int64 `json:"failed"`
	Admissions   int64 `json:"admissions"`
	AdmissionsOK int64 `json:"admissions_ok"`
	Reads        int64 `json:"reads"`
	// Seconds is the phase's wall time in the generator.
	Seconds float64 `json:"seconds"`
	// LatP50 is the admission latency median in ms: from the due instant
	// in an open loop, from the send in a closed one.
	LatP50 float64 `json:"lat_p50_ms"`
	// RefAdmissions and RefOK count interleaved reference admissions
	// (not part of Sent), RefLatP50 is their latency median, and
	// PairRatioP50 the median over program admissions of their latency
	// divided by that of the reference admission sent right after.
	RefAdmissions int64   `json:"ref_admissions"`
	RefOK         int64   `json:"ref_ok"`
	RefLatP50     float64 `json:"ref_lat_p50_ms"`
	PairRatioP50  float64 `json:"pair_ratio_p50"`
	// Dials and RefDials count the TCP connections the generator opened
	// so far to the program and to the reference exchange.
	Dials    int64 `json:"dials"`
	RefDials int64 `json:"ref_dials"`
	// Cut reports that MaxSeconds ended the phase before Count admissions.
	Cut    bool     `json:"cut"`
	Errors []string `json:"errors,omitempty"`
	// LatMS and LagMS are every admission latency and every pacer wake-up
	// lag (how late the open loop sent), in ms, when Raw was asked.
	LatMS      []float64  `json:"lat_ms,omitempty"`
	LagMS      []float64  `json:"lag_ms,omitempty"`
	PerRequest [][2]int64 `json:"per_request,omitempty"`
}

// loadgenMain runs the generator process.
func loadgenMain(in io.Reader, out io.Writer) int {
	dec := json.NewDecoder(bufio.NewReader(in))
	var cfg genConfig
	if err := dec.Decode(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: read config:", err)
		return 1
	}
	w, err := workloadByName(cfg.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	trace, err := makeTrace(w, cfg.Seed, cfg.Horizon)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: trace:", err)
		return 1
	}
	g := &generator{trace: trace}
	for i := 0; i < max(cfg.Conns, 1); i++ {
		g.prog = append(g.prog, &genWorker{g: g, addr: cfg.Addr, dials: &g.dials})
		g.ref = append(g.ref, &genWorker{g: g, addr: cfg.RefAddr, dials: &g.refDials})
	}
	defer g.close()
	enc := json.NewEncoder(out)
	for {
		var cmd phaseCmd
		if err := dec.Decode(&cmd); err != nil {
			if errors.Is(err, io.EOF) {
				return 0
			}
			fmt.Fprintln(os.Stderr, "loadgen: read command:", err)
			return 1
		}
		if cmd.From < 0 || cmd.From+cmd.Count > len(trace) {
			fmt.Fprintf(os.Stderr, "loadgen: phase %s wants trace[%d:%d] of %d\n", cmd.Name, cmd.From, cmd.From+cmd.Count, len(trace))
			return 1
		}
		if cmd.Reference && cmd.Rate > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: phase %s: a reference phase runs closed-loop\n", cmd.Name)
			return 1
		}
		if err := enc.Encode(g.run(cmd)); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: write result:", err)
			return 1
		}
	}
}

type generator struct {
	trace []serve.Request
	// prog and ref are the workers of the program's and the reference
	// exchange's connections.
	prog, ref       []*genWorker
	dials, refDials atomic.Int64
	// opLat holds each operation's latency in ms in an interleaved phase
	// (NaN: failed or a read); each operation writes only its own slot.
	opLat []float64
}

// genWorker owns one keep-alive connection and its phase tallies.
type genWorker struct {
	g     *generator
	addr  string
	dials *atomic.Int64
	cl    *client

	sent, answered, failed int64
	adm, admOK             int64
	reads                  int64
	refs, refsOK           int64
	lat, refLat            []float64
	per                    [][2]int64
	errs                   []string
}

func (g *generator) close() {
	for _, w := range append(g.prog, g.ref...) {
		if w.cl != nil {
			w.cl.conn.Close()
		}
	}
}

// Operation kinds of a phase.
const (
	opAdmit = iota // an admission to the program
	opRead         // an operator read from the program
	opRef          // an admission to the reference exchange
)

// interleaved reports whether a phase pairs each program operation with
// a reference admission: an open loop does, so the two see the same host
// conditions.
func (c *phaseCmd) interleaved() bool { return c.Rate > 0 }

// opAt maps operation j of a phase to its kind and, for admissions, the
// offset of the request in the phase's trace range.  Interleaved phases
// send every other operation to the reference exchange, with the body
// of the program admission before it.  In a Reference phase, admissions
// and reads go to the reference exchange too (see toReference).
func opAt(j int, cmd *phaseCmd) (kind, adm int) {
	if cmd.interleaved() {
		if j%2 == 1 {
			_, k := opAt(j-1, cmd)
			return opRef, k
		}
		j /= 2
	}
	if cmd.ReadEvery > 0 {
		if (j+1)%cmd.ReadEvery == 0 {
			return opRead, 0
		}
		return opAdmit, j - (j+1)/cmd.ReadEvery
	}
	return opAdmit, j
}

// toReference reports whether operation j goes to the reference
// exchange, on the reference connections.
func toReference(j int, cmd *phaseCmd) bool {
	if cmd.Reference {
		return true
	}
	kind, _ := opAt(j, cmd)
	return kind == opRef
}

// opsFor is the number of operations of a phase that carries exactly
// cmd.Count program admissions.
func opsFor(cmd *phaseCmd) int {
	j := cmd.Count
	if cmd.ReadEvery > 0 {
		for j-j/cmd.ReadEvery < cmd.Count {
			j++
		}
	}
	if cmd.interleaved() {
		j *= 2
	}
	return j
}

func (g *generator) run(cmd phaseCmd) phaseResult {
	ops := opsFor(&cmd)
	all := append(append([]*genWorker(nil), g.prog...), g.ref...)
	for _, w := range all {
		w.reset()
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cmd.MaxSeconds * float64(time.Second)))
	for _, w := range all {
		if w.cl != nil {
			// One deadline per phase instead of one timer per request.
			w.cl.conn.SetDeadline(deadline.Add(10 * time.Second))
		}
	}
	g.opLat = nil
	if cmd.interleaved() {
		g.opLat = make([]float64, ops)
		for i := range g.opLat {
			g.opLat[i] = math.NaN()
		}
	}
	var cut atomic.Bool
	var lags []float64
	if cmd.Rate > 0 {
		lags = g.openLoop(&cmd, ops, deadline, &cut)
	} else {
		g.closedLoop(&cmd, ops, deadline, &cut)
	}
	res := phaseResult{Name: cmd.Name, Seconds: time.Since(start).Seconds(), Cut: cut.Load(), Dials: g.dials.Load(), RefDials: g.refDials.Load()}
	var lat, refLat []float64
	for _, w := range all {
		res.RefAdmissions += w.refs
		res.RefOK += w.refsOK
		refLat = append(refLat, w.refLat...)
		res.Sent += w.sent
		res.Answered += w.answered
		res.Failed += w.failed
		res.Admissions += w.adm
		res.AdmissionsOK += w.admOK
		res.Reads += w.reads
		lat = append(lat, w.lat...)
		res.PerRequest = append(res.PerRequest, w.per...)
		for _, e := range w.errs {
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, e)
			}
		}
	}
	lat = sortedCopy(lat)
	if cmd.Raw {
		res.LatMS, res.LagMS = lat, lags
	}
	if len(lat) > 0 {
		res.LatP50 = quantile(lat, 0.5)
	}
	if len(refLat) > 0 {
		res.RefLatP50 = median(refLat)
	}
	var pairs []float64
	for j := 0; j+1 < len(g.opLat); j += 2 {
		if a, b := g.opLat[j], g.opLat[j+1]; !math.IsNaN(a) && !math.IsNaN(b) {
			pairs = append(pairs, a/b)
		}
	}
	if len(pairs) > 0 {
		res.PairRatioP50 = median(pairs)
	}
	return res
}

// closedLoop has each connection of the phase's set send its next
// operation as soon as the previous one completes.
func (g *generator) closedLoop(cmd *phaseCmd, ops int, deadline time.Time, cut *atomic.Bool) {
	workers := g.prog
	if cmd.Reference {
		workers = g.ref
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *genWorker) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= ops {
					return
				}
				if time.Now().After(deadline) {
					cut.Store(true)
					return
				}
				op := &genOp{j: j}
				w.start(cmd, op, deadline)
				w.finish(cmd, op)
			}
		}(w)
	}
	wg.Wait()
}

// genOp is one operation in flight.  due is the open loop's scheduled
// send instant (zero in a closed loop); send is when its bytes went out.
type genOp struct {
	j         int
	due, send time.Time
	err       error
}

// loopPool is one set of connections an open loop sends on: which are
// idle, and the operations waiting for one.
type loopPool struct {
	workers  []*genWorker
	idle     []bool
	backlog  []*genOp
	inflight []chan *genOp
	next     int
}

func newLoopPool(workers []*genWorker) *loopPool {
	pl := &loopPool{workers: workers, idle: make([]bool, len(workers)), inflight: make([]chan *genOp, len(workers))}
	for i := range workers {
		pl.idle[i] = true
		// One slot: a connection carries at most one request at a time.
		pl.inflight[i] = make(chan *genOp, 1)
	}
	return pl
}

// openLoop emits ops operations at cmd.Rate per second from one goroutine
// locked to its OS thread, sleeping with nanosleep(2): time.Sleep
// overshoots by about a millisecond at the median on small VMs, which an
// open loop would then time as server latency.  The pacer writes each
// request on an idle connection of its set itself, so only its own
// wake-up lies between the due instant and the send; one reader
// goroutine per connection takes the responses.  When every connection
// of the set is busy the operation waits in that set's backlog, which
// the next of its readers to finish sends, and its latency, timed from
// the due instant, includes the wait.  openLoop returns each operation's
// wake-up lag in ms.
func (g *generator) openLoop(cmd *phaseCmd, ops int, deadline time.Time, cut *atomic.Bool) []float64 {
	var (
		mu      sync.Mutex
		pending sync.WaitGroup
		readers sync.WaitGroup
	)
	prog, ref := newLoopPool(g.prog), newLoopPool(g.ref)
	pools := []*loopPool{prog, ref}
	for _, pl := range pools {
		for i, w := range pl.workers {
			readers.Add(1)
			go func(pl *loopPool, i int, w *genWorker) {
				defer readers.Done()
				for op := range pl.inflight[i] {
					for op != nil {
						w.finish(cmd, op)
						pending.Done()
						mu.Lock()
						op = nil
						if len(pl.backlog) > 0 {
							op, pl.backlog = pl.backlog[0], pl.backlog[1:]
						} else {
							pl.idle[i] = true
						}
						mu.Unlock()
						if op != nil {
							w.start(cmd, op, deadline)
						}
					}
				}
			}(pl, i, w)
		}
	}
	lags := make([]float64, 0, ops)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		interval := float64(time.Second) / cmd.Rate
		start := time.Now()
		for j := 0; j < ops; j++ {
			due := start.Add(time.Duration(float64(j) * interval))
			if due.After(deadline) {
				cut.Store(true)
				return
			}
			sleepUntil(due)
			lags = append(lags, float64(time.Since(due))/1e6)
			op := &genOp{j: j, due: due}
			pl := prog
			if toReference(j, cmd) {
				pl = ref
			}
			pending.Add(1)
			mu.Lock()
			free := -1
			for k := range pl.idle {
				if c := (pl.next + k) % len(pl.idle); pl.idle[c] {
					free = c
					break
				}
			}
			if free >= 0 {
				pl.idle[free] = false
				pl.next = free + 1
			} else {
				pl.backlog = append(pl.backlog, op)
			}
			mu.Unlock()
			if free >= 0 {
				pl.workers[free].start(cmd, op, deadline)
				pl.inflight[free] <- op
			}
		}
	}()
	<-done
	pending.Wait()
	for _, pl := range pools {
		for _, ch := range pl.inflight {
			close(ch)
		}
	}
	readers.Wait()
	return lags
}

func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR ends the sleep early; the loop sleeps the remainder.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

func (w *genWorker) reset() {
	w.sent, w.answered, w.failed = 0, 0, 0
	w.adm, w.admOK, w.reads, w.refs, w.refsOK = 0, 0, 0, 0, 0
	w.lat, w.refLat, w.per, w.errs = w.lat[:0], w.refLat[:0], w.per[:0], w.errs[:0]
}

func (w *genWorker) note(format string, args ...any) {
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

// start writes operation op on the worker's connection, dialling first
// if the connection is gone; a failure is left in op.err for finish.
func (w *genWorker) start(cmd *phaseCmd, op *genOp, deadline time.Time) {
	if w.cl == nil {
		cl, err := w.dial(deadline.Add(10 * time.Second))
		if err != nil {
			op.err = fmt.Errorf("dial: %w", err)
			return
		}
		w.cl = cl
	}
	kind, k := opAt(op.j, cmd)
	idx := cmd.From + k
	op.send = time.Now()
	switch kind {
	case opRead:
		op.err = w.cl.writeGet(-1-int64(op.j), readPath(op.j, cmd))
	case opRef:
		op.err = w.cl.writePost(refPath, -1-int64(op.j), w.g.trace[idx])
	default:
		path := ""
		if cmd.Reference {
			path = refPath
		}
		op.err = w.cl.writePost(path, int64(idx), w.g.trace[idx])
	}
}

// readPath is the path of read operation j: the reference read in a
// Reference phase, else the program's operator reads in alternation.
func readPath(j int, cmd *phaseCmd) string {
	if cmd.Reference {
		return refReadPath
	}
	if cmd.interleaved() {
		j /= 2
	}
	return readPaths[(j/cmd.ReadEvery)%len(readPaths)]
}

// finish reads operation op's response and tallies its outcome.
func (w *genWorker) finish(cmd *phaseCmd, op *genOp) {
	kind, k := opAt(op.j, cmd)
	idx := cmd.From + k
	read := kind == opRead
	path := "admit"
	switch kind {
	case opRead:
		path = readPath(op.j, cmd)
	case opRef:
		path = refPath
		w.refs++
	default:
		w.adm++
	}
	if kind != opRef {
		w.sent++
	}
	var status int
	var body []byte
	err := op.err
	if err == nil {
		status, body, err = w.cl.readResponse()
	}
	end := time.Now()
	if err != nil {
		// The connection is unusable; the next operation redials, which
		// the server process then reports as an unexpected connection.
		if w.cl != nil {
			w.cl.conn.Close()
			w.cl = nil
		}
		w.miss(kind, "%s: %v", path, err)
		return
	}
	if read {
		w.reads++
		if status != http.StatusOK || !readOK(path, body) {
			w.miss(kind, "%s: status %d body %.80q", path, status, body)
			return
		}
		w.answered++
		return
	}
	if status != http.StatusOK {
		w.miss(kind, "%s %d: status %d body %.80q", path, idx, status, body)
		return
	}
	if msg := ticketBodyProblem(body); msg != "" {
		w.miss(kind, "%s %d: %s", path, idx, msg)
		return
	}
	from := op.send
	if !op.due.IsZero() {
		from = op.due
	}
	ms := float64(end.Sub(from)) / 1e6
	if w.g.opLat != nil {
		w.g.opLat[op.j] = ms
	}
	if kind == opRef {
		w.refsOK++
		w.refLat = append(w.refLat, ms)
		return
	}
	w.admOK++
	w.answered++
	w.lat = append(w.lat, ms)
	if cmd.PerRequest {
		w.per = append(w.per, [2]int64{int64(idx), int64(end.Sub(op.send))})
	}
}

// miss counts a failed operation; a failed program admission also
// records a latency that misses every limit.  A failed reference
// admission is not the program's failure, but its error is reported.
func (w *genWorker) miss(kind int, format string, args ...any) {
	w.note(format, args...)
	if kind == opRef {
		return
	}
	w.failed++
	if kind == opAdmit {
		w.lat = append(w.lat, missedMS)
	}
}

func (w *genWorker) dial(deadline time.Time) (*client, error) {
	w.dials.Add(1)
	c, err := net.DialTimeout("tcp", w.addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(deadline)
	return &client{conn: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// client speaks HTTP/1.1 over one keep-alive connection with
// preformatted requests, keeping generator CPU low on a host it shares
// with the server.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
	body []byte
}

// writePost sends an admission to path, or to /v1/request when empty.
func (c *client) writePost(path string, id int64, r serve.Request) error {
	if path == "" {
		path = "/v1/request"
	}
	c.body = appendRequestBody(c.body[:0], r)
	b := append(c.buf[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"...)
	b = appendIDHeader(b, id)
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(c.body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, c.body...)
	c.buf = b
	_, err := c.conn.Write(b)
	return err
}

func (c *client) writeGet(id int64, path string) error {
	b := append(c.buf[:0], "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	b = appendIDHeader(b, id)
	b = append(b, "\r\n"...)
	c.buf = b
	_, err := c.conn.Write(b)
	return err
}

func appendIDHeader(b []byte, id int64) []byte {
	b = append(b, requestIDHeader+": "...)
	b = strconv.AppendInt(b, id, 10)
	return append(b, "\r\n"...)
}

// readResponse reads one response and its whole body.
func (c *client) readResponse() (int, []byte, error) {
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		return 0, nil, errors.New("server closed the keep-alive connection")
	}
	return resp.StatusCode, body, nil
}

// appendRequestBody encodes {"object":..., "t":...}; 'g' with precision
// -1 round-trips the virtual timestamp bit for bit.
func appendRequestBody(b []byte, r serve.Request) []byte {
	b = append(b, `{"object":`...)
	b = strconv.AppendQuote(b, r.Object)
	b = append(b, `,"t":`...)
	b = strconv.AppendFloat(b, r.T, 'g', -1, 64)
	return append(b, '}')
}

// ticketFields are the ticket fields the output check reads.
type ticketFields struct {
	Decision serve.Decision `json:"decision"`
	T        float64        `json:"t"`
	Delay    float64        `json:"delay"`
	StartAt  float64        `json:"start_at"`
}

func ticketBodyProblem(body []byte) string {
	var tf ticketFields
	if err := json.Unmarshal(body, &tf); err != nil {
		return fmt.Sprintf("unparseable ticket: %v", err)
	}
	return ticketProblem(tf.Decision, tf.T, tf.Delay, tf.StartAt)
}

// waitSlack absorbs float rounding in StartAt-T: both are sums of a
// slot base and offsets in media lengths of order 1e2, exact to ~1e-13.
const waitSlack = 1e-9

// ticketProblem checks the delay guarantee: every ticket is admitted or
// degraded and starts playback within its guaranteed delay.
func ticketProblem(d serve.Decision, t, delay, startAt float64) string {
	if d != serve.Admitted && d != serve.Degraded {
		return fmt.Sprintf("decision %q", d)
	}
	wait := startAt - t
	if !(delay > 0) || math.IsNaN(wait) || wait < -waitSlack || wait > delay+waitSlack {
		return fmt.Sprintf("start-up wait %g outside [0, %g] (t=%g start_at=%g)", wait, delay, t, startAt)
	}
	return ""
}

// readOK checks a read's body parses: JSON stats, or Prometheus text
// whose every sample line ends in a number.
func readOK(path string, body []byte) bool {
	if path == "/v1/stats" {
		var st struct {
			Admitted *int64 `json:"admitted"`
		}
		return json.Unmarshal(body, &st) == nil && st.Admitted != nil
	}
	samples := 0
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return false
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			return false
		}
		samples++
	}
	return samples > 0
}
