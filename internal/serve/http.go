package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// APIVersion is the current HTTP API version prefix.
const APIVersion = "/v1"

// maxRequestBody bounds the body of the single-request route; a Request
// is a name and a timestamp, so 1 MiB is already generous.
const maxRequestBody = 1 << 20

// maxBatchBody and maxBatchRequests bound the batch-admission route so a
// single POST cannot exhaust server memory: the body is capped before
// decoding and the decoded array is capped before any Submit runs.
const (
	maxBatchBody     = 8 << 20
	maxBatchRequests = 10000
)

// BatchResult is one entry of the /v1/requests batch-admission response:
// either a ticket or a per-request error (the batch itself still returns
// 200 so one bad object name cannot fail the whole batch).
type BatchResult struct {
	Ticket *Ticket `json:"ticket,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// Handler returns the HTTP JSON API for the server.  Every route is
// versioned under APIVersion:
//
//	POST /v1/request         {"object":"name","t":12.5}    -> Ticket
//	POST /v1/requests        [{"object":"a"},{...}, ...]   -> []BatchResult
//	GET  /v1/stats           -> Stats
//	GET  /v1/objects/{name}  -> ObjectStats
//	GET  /v1/healthz         -> "ok"
//	GET  /v1/metrics         -> Prometheus text exposition (see prometheus.go)
//	POST /v1/admin/snapshot  -> force a durable snapshot of every shard
//	                            (409 when the server has no store)
//
// Every error response, on every route and shard, is a uniform JSON body
// {"error": "..."} with the appropriate status (unknown objects and
// unknown paths are always 404) — clients never have to parse plain-text
// error bodies.  With Config.PressureHighWater set, a shard over its
// queue high-water mark answers 429 with a Retry-After header (seconds,
// derived from the shard's observed drain rate) instead of blocking the
// submit.
//
// A request body without "t" (or with a negative one) is stamped with the
// wall clock in Config.TimeUnit units since the server started, which is
// how a live deployment runs; the load driver sends explicit virtual
// timestamps instead for deterministic replay.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(APIVersion+"/request", s.handleRequest)
	mux.HandleFunc(APIVersion+"/requests", s.handleBatch)
	mux.HandleFunc(APIVersion+"/stats", s.handleStats)
	mux.HandleFunc(APIVersion+"/objects/", s.handleObject)
	mux.HandleFunc(APIVersion+"/healthz", handleHealthz)
	mux.HandleFunc(APIVersion+"/metrics", s.handleMetricsProm)
	mux.HandleFunc(APIVersion+"/admin/snapshot", s.handleSnapshot)
	mux.HandleFunc("/", handleNotFound)
	return mux
}

// handleNotFound answers every path no route matches, keeping 404s in the
// uniform JSON error format.
func handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeJSONError(w, http.StatusNotFound, fmt.Sprintf("no route for %s; the API is served under %s", r.URL.Path, APIVersion))
}

// handleSnapshot answers POST /v1/admin/snapshot by forcing an immediate
// snapshot of every shard and waiting for the stores to confirm — the
// warm-restart primitive: snapshot, stop the process, restart with the
// restore flag.  Servers without a durability store answer 409.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	err := s.Snapshot()
	switch {
	case errors.Is(err, ErrBadConfig):
		writeJSONError(w, http.StatusConflict, err.Error())
		return
	case errors.Is(err, ErrClosed):
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req := Request{T: -1}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	ticket, err := s.Submit(req)
	var pe *PressureError
	switch {
	case errors.Is(err, ErrUnknownObject):
		writeJSONError(w, http.StatusNotFound, err.Error())
		return
	case errors.As(err, &pe):
		// Queue-depth backpressure: tell the client when the shard's
		// queue should have drained instead of blocking its request.
		w.Header().Set("Retry-After", retryAfterSeconds(pe.RetryAfter))
		writeJSONError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrClosed):
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	status := http.StatusOK
	if ticket.Decision == Rejected {
		// The catalog object exists but the admission controller
		// declined: overloaded, try again later (or elsewhere).
		status = http.StatusServiceUnavailable
	}
	if s.cfg.MeterStages {
		t0 := s.nowNanos()
		writeJSON(w, status, ticket)
		s.observeRespond(ticket.Strategy, s.nowNanos()-t0)
		return
	}
	writeJSON(w, status, ticket)
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (the header has one-second resolution).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// handleBatch admits an array of requests through Server.SubmitBatch,
// answering one BatchResult per input.  Requests for the same object are
// processed in array order (SubmitBatch preserves per-shard order), so a
// deterministic virtual-time batch replays exactly like the same sequence
// of single requests — but the whole batch crosses each shard's message
// channel once instead of once per entry.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var raw []json.RawMessage
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&raw); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad batch body (want a JSON array of requests, at most %d MiB): %v",
			maxBatchBody>>20, err))
		return
	}
	if len(raw) > maxBatchRequests {
		writeJSONError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d requests exceeds the %d-request limit", len(raw), maxBatchRequests))
		return
	}
	out := make([]BatchResult, len(raw))
	reqs := make([]Request, 0, len(raw))
	idx := make([]int, 0, len(raw))
	for i, msg := range raw {
		req := Request{T: -1} // absent "t" means wall-clock stamping, like /v1/request
		if err := json.Unmarshal(msg, &req); err != nil {
			out[i] = BatchResult{Error: fmt.Sprintf("bad request %d: %v", i, err)}
			continue
		}
		reqs = append(reqs, req)
		idx = append(idx, i)
	}
	pressured := 0
	var worst time.Duration
	for k, res := range s.SubmitBatch(reqs) {
		if res.Err != nil {
			var pe *PressureError
			if errors.As(res.Err, &pe) {
				pressured++
				if pe.RetryAfter > worst {
					worst = pe.RetryAfter
				}
			}
			out[idx[k]] = BatchResult{Error: res.Err.Error()}
			continue
		}
		tk := res.Ticket
		out[idx[k]] = BatchResult{Ticket: &tk}
	}
	// A batch refused entirely by backpressure answers 429 + Retry-After
	// like the single-request route; partial pressure stays a 200 with
	// per-entry errors (the batch contract: one bad entry never fails
	// the rest).
	if pressured > 0 && pressured == len(out) && len(out) > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(worst))
		writeJSON(w, http.StatusTooManyRequests, out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats()
	if err != nil {
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleObject answers GET /v1/objects/{name}.  Unknown objects get a
// uniform 404 JSON error ({"error": ...}) on every shard — never an empty
// 200 body — pinned by TestV1ObjectNotFoundJSON.
func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, APIVersion+"/objects/")
	if name == "" {
		writeJSONError(w, http.StatusBadRequest, "missing object name")
		return
	}
	os, err := s.Object(name)
	switch {
	case errors.Is(err, ErrUnknownObject):
		writeJSONError(w, http.StatusNotFound, err.Error())
		return
	case err != nil:
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, os)
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJSONError writes the API's uniform error body: a JSON object with
// a single "error" message, so clients can parse every non-2xx response
// the same way (plain-text http.Error bodies are never used).
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// Serve runs the HTTP API on the listener until ctx is cancelled, then
// shuts the HTTP server down gracefully (letting in-flight requests
// finish) and closes the admission server.  It returns the first serve
// error other than http.ErrServerClosed.
func Serve(ctx context.Context, ln net.Listener, s *Server) error {
	hs := &http.Server{Handler: Handler(s)}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(shutCtx)
		s.Close()
		<-errc // reap the Serve goroutine
		return err
	case err := <-errc:
		s.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// ListenAndServe binds addr and calls Serve.  An addr ending in ":0"
// picks a free port; the bound address is reported through onReady (when
// non-nil) before serving starts.
func ListenAndServe(ctx context.Context, addr string, s *Server, onReady func(boundAddr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	return Serve(ctx, ln, s)
}
