package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// References calibrate the gated timings against the host.  On a shared
// VM, CPU per request and light-load latency follow hypervisor steal and
// the neighbours' load far more than they follow the program: over ten
// wire-online runs on a 2-vCPU Intel Xeon VM at 0-30% steal, the raw
// latency p50 spread 51% and the raw CPU per request 21%.  So the
// program is measured beside benchmark-owned reference work under the
// same host conditions, and the gated figure is the ratio of the two
// times the reference's cost on a calibration host (refCosts):
//
//   - wire open loop: every program admission is followed, one interval
//     later, by a reference admission on the generator's reference
//     connections; the ratio is the median over windows of the median
//     paired latency ratio.
//   - wire saturation: short program and reference windows alternate;
//     the ratio is the server process's CPU per admission over the
//     reference process's CPU per reference admission.  On wire-durable,
//     whose CPU is nearly all operator reads, the reference windows carry
//     the same share of reference reads, which sort a fixed set of events
//     the way a server read sorts its streams' events.
//   - batch: every SubmitBatch call is followed by one reference kernel
//     call; the latency ratio is the median paired ratio, the CPU ratio
//     program CPU per request over reference CPU per call, per iteration,
//     median over iterations.
//   - set-up: every timed set-up is followed by a reference set-up (start
//     the reference exchange and answer one request; on wire-durable
//     first restore a fixed state of the reference's own: read a fixed
//     file the reference process wrote when it started and decode it into
//     indexed records, as a restore reads and decodes a snapshot); setup_s
//     is the median paired ratio times the reference set-up's calibrated
//     cost.
//
// The references run in their own process, the benchmark binary
// re-executed with referenceEnv set, on their own inputs: they share
// the host with the server process but not its heap, its garbage
// collector or its connections, so a change to the program moves only
// the numerator.  The reference exchange has the server's request shape
// (JSON decode, a round trip through an event loop goroutine per shard,
// an indented JSON ticket) without its logic.

// refPath routes an admission to the reference exchange, and
// refReadPath an operator read to its reference read.
const (
	refPath     = "/benchmark/reference"
	refReadPath = "/benchmark/reference/read"
)

// refReadEvents is the size of the reference read's sort: the order of
// the stream start/end events a wire-durable read sorts after the
// 150k-request prefix.
const refReadEvents = 1 << 20

// refFileBytes is the size of the wire-durable reference set-up's fixed
// input, about the size of one restored snapshot, and refRecordBytes the
// size of one record it decodes.
const (
	refFileBytes   = 4 << 20
	refRecordBytes = 16
)

// refSatRate is the reference exchange's closed-loop rate (requests/s)
// on a 2-vCPU host; it sizes the reference windows to the program
// windows they pair with.
const refSatRate = 15000

// refCosts are a workload's reference costs as measured on the
// calibration host; the gated setup_s, latency_p50_ms and cpu_us_per_req
// are the program's measured ratio to its reference times these, the
// program's cost expressed at that host's speed.  The raw figures of
// every run are printed beside them as diagnostics ("reference raw").
type refCosts struct {
	setupS float64 // reference set-up, s
	latMS  float64 // open-loop reference admission p50 (wire) or kernel call time (batch), ms
	cpuUS  float64 // reference CPU per admission at saturation (wire) or per kernel call (batch), us
}

type refRequest struct {
	Object string  `json:"object"`
	T      float64 `json:"t"`
}

// refTicket has the wire shape of an admission ticket.
type refTicket struct {
	ID       int64   `json:"id,omitempty"`
	Object   string  `json:"object"`
	Decision string  `json:"decision"`
	Strategy string  `json:"strategy"`
	T        float64 `json:"t"`
	Epoch    int     `json:"epoch"`
	Slot     int64   `json:"slot"`
	Delay    float64 `json:"delay"`
	StartAt  float64 `json:"start_at"`
	Program  []int64 `json:"program,omitempty"`
}

type refMsg struct {
	req   refRequest
	reply chan refTicket
}

// reference answers admissions from one event-loop goroutine per shard.
type reference struct {
	delay  float64
	loops  []chan refMsg
	wg     sync.WaitGroup
	closed bool
}

func newReference(loops int, delay float64) *reference {
	r := &reference{delay: delay, loops: make([]chan refMsg, loops)}
	for i := range r.loops {
		// Like a shard queue: submitters never wait for the loop to park.
		r.loops[i] = make(chan refMsg, 256)
		r.wg.Add(1)
		go r.loop(r.loops[i])
	}
	return r
}

func (r *reference) loop(ch chan refMsg) {
	defer r.wg.Done()
	var seq int64
	for m := range ch {
		seq++
		slot := math.Floor(m.req.T / r.delay)
		m.reply <- refTicket{
			ID: seq, Object: m.req.Object, Decision: "admitted", Strategy: "reference",
			T: m.req.T, Slot: int64(slot), Delay: r.delay, StartAt: (slot + 1) * r.delay,
			Program: []int64{int64(slot)},
		}
	}
}

// close stops the loops; no request may be in flight.  Closing twice is
// a no-op.
func (r *reference) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, ch := range r.loops {
		close(ch)
	}
	r.wg.Wait()
}

// admit routes a request to its loop and waits for the ticket.
func (r *reference) admit(q refRequest) refTicket {
	h := fnv.New32a()
	h.Write([]byte(q.Object))
	m := refMsg{req: q, reply: make(chan refTicket, 1)}
	r.loops[int(h.Sum32()%uint32(len(r.loops)))] <- m
	return <-m.reply
}

func (r *reference) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path == refReadPath {
		refRead(w)
		return
	}
	var q refRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20)).Decode(&q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t := r.admit(q)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t)
}

// refRead is the reference operator read: it sorts refReadEvents
// start/end events the way a server read sorts its finalized streams'
// events, and answers the peak in the Prometheus text format.
func refRead(w http.ResponseWriter) {
	type event struct {
		t     float64
		delta int
	}
	events := make([]event, refReadEvents)
	x := uint64(1)
	for i := range events {
		x = x*6364136223846793005 + 1442695040888963407
		events[i] = event{t: float64(x>>11) / (1 << 53), delta: 1 - 2*int(i&1)}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].delta < events[j].delta
	})
	cur, peak := 0, 0
	for _, e := range events {
		cur += e.delta
		peak = max(peak, cur)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE reference_peak gauge\nreference_peak %d\n", peak)
}

// refKernel is the batch workload's reference: per call, one goroutine
// per shard fills a banded min-plus table the shape of the off-line DP's
// (flat float64 costs, int32 splits), fanned out and joined over
// channels the way SubmitBatch crosses the shard loops.  Each call
// does identical work, so its time and CPU measure the host.
type refKernel struct {
	start []chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// Table shape of one reference fill: refRows rows of refBand cells,
// about as long as a 500-request SubmitBatch call on a 2-vCPU host.
const (
	refRows = 1024
	refBand = 24
)

func newRefKernel(workers int) *refKernel {
	k := &refKernel{start: make([]chan struct{}, workers), done: make(chan struct{}, workers)}
	for i := range k.start {
		k.start[i] = make(chan struct{})
		k.wg.Add(1)
		go k.worker(k.start[i])
	}
	return k
}

func (k *refKernel) worker(start chan struct{}) {
	defer k.wg.Done()
	cost := make([]float64, refRows*refBand)
	split := make([]int32, refRows*refBand)
	for range start {
		fillBand(cost, split)
		k.done <- struct{}{}
	}
}

// call runs one fill on every worker and waits for all of them.
func (k *refKernel) call() {
	for _, s := range k.start {
		s <- struct{}{}
	}
	for range k.start {
		<-k.done
	}
}

func (k *refKernel) close() {
	for _, s := range k.start {
		close(s)
	}
	k.wg.Wait()
}

// fillBand fills cost[i*refBand+d], the cheapest split of the interval
// of length d+1 starting at row i, from the shorter intervals below it.
func fillBand(cost []float64, split []int32) {
	for d := 0; d < refBand; d++ {
		for i := 0; i+d < refRows; i++ {
			c := i*refBand + d
			if d == 0 {
				cost[c] = 1
				continue
			}
			best, arg := math.MaxFloat64, int32(0)
			for h := 0; h < d; h++ {
				left := cost[i*refBand+h]
				right := cost[(i+h+1)*refBand+d-h-1]
				if v := left + right + float64(d)*0.5; v < best {
					best, arg = v, int32(h)
				}
			}
			cost[c], split[c] = best, arg
		}
	}
}

// refConfig configures the reference process: Workers event loops and
// kernel workers (the server's shard count), and File, when set, the
// path of the fixed input the wire set-up reference reads.
type refConfig struct {
	Workers int    `json:"workers"`
	File    string `json:"file,omitempty"`
}

// refCmd asks the reference process for one measurement:
//
//	cpu          the process's CPU time so far
//	kernel       one refKernel call
//	setup-wire   a reference wire set-up answering Req
//	setup-batch  a reference in-process set-up answering Req
type refCmd struct {
	Op  string        `json:"op"`
	Req serve.Request `json:"req"`
}

// refReply answers a refCmd.  The first reply, sent unasked, carries the
// reference exchange's address.
type refReply struct {
	Addr   string `json:"addr,omitempty"`
	WallNS int64  `json:"wall_ns"`
	CPUNS  int64  `json:"cpu_ns"`
	Err    string `json:"err,omitempty"`
}

// referenceMain runs the reference process: the reference exchange on a
// loopback port, and the timed reference calls its commands ask for.
func referenceMain(in io.Reader, out io.Writer) int {
	dec := json.NewDecoder(bufio.NewReader(in))
	var cfg refConfig
	if err := dec.Decode(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "reference: read config:", err)
		return 1
	}
	if cfg.File != "" {
		if err := writeRefFile(cfg.File); err != nil {
			fmt.Fprintln(os.Stderr, "reference:", err)
			return 1
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reference:", err)
		return 1
	}
	ex := newReference(cfg.Workers, mediaLength*delayShare)
	front := startFront(ex, ln)
	kernel := newRefKernel(cfg.Workers)
	defer func() {
		front.close()
		ex.close()
		kernel.close()
	}()
	enc := json.NewEncoder(out)
	if err := enc.Encode(refReply{Addr: ln.Addr().String()}); err != nil {
		fmt.Fprintln(os.Stderr, "reference: write address:", err)
		return 1
	}
	for {
		var cmd refCmd
		if err := dec.Decode(&cmd); err != nil {
			if errors.Is(err, io.EOF) {
				return 0
			}
			fmt.Fprintln(os.Stderr, "reference: read command:", err)
			return 1
		}
		var rep refReply
		var d time.Duration
		var err error
		switch cmd.Op {
		case "cpu":
			rep.CPUNS = int64(processCPU())
		case "kernel":
			c0, start := processCPU(), time.Now()
			kernel.call()
			rep.WallNS, rep.CPUNS = int64(time.Since(start)), int64(processCPU()-c0)
		case "setup-wire":
			d, err = refWireSetup(cfg, cmd.Req)
			rep.WallNS = int64(d)
		case "setup-batch":
			d, err = refBatchSetup(cfg, cmd.Req)
			rep.WallNS = int64(d)
		default:
			err = fmt.Errorf("unknown command %q", cmd.Op)
		}
		if err != nil {
			rep.Err = err.Error()
		}
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "reference: write reply:", err)
			return 1
		}
	}
}

// writeRefFile writes refFileBytes of fixed pseudo-random bytes: the
// same input whatever the program or the seed.
func writeRefFile(path string) error {
	b := make([]byte, refFileBytes)
	x := uint64(1)
	for i := 0; i < len(b); i += 8 {
		x = x*6364136223846793005 + 1442695040888963407
		for k := 0; k < 8; k++ {
			b[i+k] = byte(x >> (8 * k))
		}
	}
	return os.WriteFile(path, b, 0o644)
}

// refWireSetup is the reference counterpart of a wire set-up, timed the
// same way: it restores the fixed input (wire-durable only), starts a
// reference exchange behind a fresh HTTP server, and has it answer one
// admission over a fresh connection.
func refWireSetup(cfg refConfig, req serve.Request) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	if cfg.File != "" {
		b, err := os.ReadFile(cfg.File)
		if err != nil {
			ln.Close()
			return 0, err
		}
		refSink = refRestore(b)
	}
	ref := newReference(cfg.Workers, mediaLength*delayShare)
	front := startFront(ref, ln)
	status, body, err := firstRequest(ln.Addr().String(), refPath, -1, req)
	d := time.Since(start)
	front.close()
	ref.close()
	if err != nil {
		return 0, err
	}
	if msg := ticketBodyProblem(body); status != http.StatusOK || msg != "" {
		return 0, fmt.Errorf("status %d: %s", status, msg)
	}
	return d, nil
}

// refSink keeps the reference restore's result live.
var refSink uint32

// refRecord is one decoded record of the reference restore: a key, a
// time, and the index of the key's previous record.
type refRecord struct {
	key  uint32
	t    float64
	prev int32
}

// refRestore checksums b and decodes it into records chained per key
// through a map index, growing both as it goes, the way a snapshot load
// decodes per-object state.
func refRestore(b []byte) uint32 {
	var recs []refRecord
	last := make(map[uint32]int32)
	for i := 0; i+refRecordBytes <= len(b); i += refRecordBytes {
		k := binary.LittleEndian.Uint32(b[i:]) % (1 << 16)
		prev, ok := last[k]
		if !ok {
			prev = -1
		}
		recs = append(recs, refRecord{key: k, t: math.Float64frombits(binary.LittleEndian.Uint64(b[i+8:]) >> 12), prev: prev})
		last[k] = int32(len(recs) - 1)
	}
	return crc32.ChecksumIEEE(b) ^ uint32(len(recs)+len(last))
}

// refBatchSetup is the reference counterpart of a batch set-up: start
// the reference loops and answer one request in process.
func refBatchSetup(cfg refConfig, req serve.Request) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	ref := newReference(cfg.Workers, mediaLength*delayShare)
	t := ref.admit(refRequest{Object: req.Object, T: req.T})
	d := time.Since(start)
	ref.close()
	if msg := ticketProblem(serve.Decision(t.Decision), t.T, t.Delay, t.StartAt); msg != "" {
		return 0, errors.New(msg)
	}
	return d, nil
}

// refProc is the running reference process, seen from the server
// process.
type refProc struct {
	*child
	addr string
}

// startReference starts the reference process with the server's shard
// count; file, when set, is where it writes the wire set-up's fixed
// input.
func startReference(workers int, file string) (*refProc, error) {
	c, err := startChild("reference", referenceEnv, refConfig{Workers: workers, File: file})
	if err != nil {
		return nil, err
	}
	var hello refReply
	if err := c.dec.Decode(&hello); err != nil || hello.Addr == "" {
		c.kill()
		return nil, fmt.Errorf("reference: no address (%v)", err)
	}
	return &refProc{child: c, addr: hello.Addr}, nil
}

func (p *refProc) do(op string, req serve.Request) (refReply, error) {
	var rep refReply
	if err := p.call(refCmd{Op: op, Req: req}, &rep); err != nil {
		return rep, err
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("reference %s: %s", op, rep.Err)
	}
	return rep, nil
}

// cpu returns the reference process's CPU time so far.
func (p *refProc) cpu() (time.Duration, error) {
	rep, err := p.do("cpu", serve.Request{})
	return time.Duration(rep.CPUNS), err
}

// kernel runs one reference kernel call and returns its wall and CPU
// time, as the reference process measured them.
func (p *refProc) kernel() (wall, cpu time.Duration, err error) {
	rep, err := p.do("kernel", serve.Request{})
	return time.Duration(rep.WallNS), time.Duration(rep.CPUNS), err
}

// setup runs one reference set-up (op setup-wire or setup-batch)
// answering req, and returns its time.
func (p *refProc) setup(op string, req serve.Request) (time.Duration, error) {
	rep, err := p.do(op, req)
	return time.Duration(rep.WallNS), err
}
