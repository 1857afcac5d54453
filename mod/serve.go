package mod

import (
	"context"
	"io"
	"net/http"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

// The live layer: the long-running, sharded Media-on-Demand admission
// server and its closed-loop load generator, re-exported so deployments
// wire everything through the facade.

// ServeConfig configures a live admission server (catalog, shards,
// channel cap, degradation policy, clock).
type ServeConfig = serve.Config

// Server is the live sharded admission server.
type Server = serve.Server

// Request is one client request for a catalog object.
type Request = serve.Request

// Ticket is the server's answer to a request.
type Ticket = serve.Ticket

// Decision is the admission outcome recorded on a Ticket.
type Decision = serve.Decision

// Admission outcomes.
const (
	Admitted = serve.Admitted
	Degraded = serve.Degraded
	Rejected = serve.Rejected
)

// ServerStats is a server-wide counter snapshot.
type ServerStats = serve.Stats

// ShardStats is the per-shard queue accounting inside ServerStats:
// instantaneous depth, capacity, lifetime high-water mark, dequeued
// total, and the configured backpressure threshold.
type ShardStats = serve.ShardStats

// PressureError reports a submit refused by queue-depth backpressure:
// which shard, the occupancy observed, and how long to wait before
// retrying (derived from the shard's drain rate).  It wraps ErrPressure.
type PressureError = serve.PressureError

// MetricsSnapshot is the full observability snapshot behind GET
// /v1/metrics: server stats plus the per-stage latency histograms.
type MetricsSnapshot = serve.MetricsSnapshot

// StageSet is one strategy's stage-latency decomposition: queue wait,
// planning, epoch replanning, and HTTP respond histograms.
type StageSet = serve.StageSet

// LatencyHistogram is the fixed-bucket log-scale nanosecond histogram the
// live layer records stage latencies into (an alias of the stats
// package's LogHistogram).
type LatencyHistogram = stats.LogHistogram

// ObjectStats is the live accounting snapshot for one object.
type ObjectStats = serve.ObjectStats

// ReplanStats is the epoch-replanning accounting inside ObjectStats: how
// many epoch closes replanned, how many of those warm-started from the
// off-line strategies' resumable forest tables, and the DP-cell reuse
// and latency totals behind them.
type ReplanStats = serve.ReplanStats

// DrainResult is the final accounting of a drained server.
type DrainResult = serve.DrainResult

// LoadConfig describes a deterministic request load.
type LoadConfig = serve.LoadConfig

// ArrivalKind selects the load generator's arrival process.
type ArrivalKind = serve.ArrivalKind

// Load-generator arrival processes.
const (
	ConstantArrivals = serve.ConstantArrivals
	PoissonArrivals  = serve.PoissonArrivals
	RampArrivals     = serve.RampArrivals
	FlashArrivals    = serve.FlashArrivals
)

// LoadReport is the closed-loop load generator's outcome.
type LoadReport = serve.Report

// APIVersion is the live server's HTTP API version prefix ("/v1").  Every
// route lives under it: POST /v1/request, POST /v1/requests (batch),
// GET /v1/stats, GET /v1/objects/{name}, GET /v1/healthz, GET /v1/metrics,
// and POST /v1/admin/snapshot; any other path answers a JSON 404.
const APIVersion = serve.APIVersion

// NewServer builds a live admission server over the catalog and starts its
// shard event loops; it is the facade's only way to build one.  Close it
// when done.  A failed NewServer leaves ServeConfig.Store to the caller.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// LivePlanners returns the sorted planner names that can serve live
// traffic — every valid Object.Strategy / DefaultStrategy value.  The
// "online" strategy is natively incremental; every other name serves
// through epoch-based replanning of its batch planner.  All live-capable
// names are also Planners() names (a test pins the subset relation).
func LivePlanners() []string { return serve.LivePlanners() }

// Store is the live server's pluggable durability backend: per-shard
// epoch snapshots plus a write-ahead log of admitted requests.  The
// server logs before acknowledging — records and acknowledgements move
// through a group-commit pipeline that coalesces many acknowledgements
// into one store flush — so the durable log is always an exact prefix of
// the acknowledged admissions.
type Store = store.Store

// SyncMode selects the durability barrier of each WAL group commit; see
// ServeConfig.SyncMode.
type SyncMode = store.SyncMode

// The group-commit sync levels: SyncOS (default) survives process kill,
// SyncFull survives power loss at one fsync per group commit, SyncNone
// leaves commit timing to the store's buffering (acknowledged requests
// may be lost on crash; the log stays a gap-free prefix of admissions).
const (
	SyncOS   = store.SyncOS
	SyncNone = store.SyncNone
	SyncFull = store.SyncFull
)

// ParseSyncMode parses the command-line spelling of a sync level:
// "none", "os" (or empty), or "full".  Unknown spellings fail with an
// error wrapping ErrBadSyncMode.
func ParseSyncMode(s string) (SyncMode, error) { return store.ParseSyncMode(s) }

// ErrBadSyncMode marks an unrecognized ParseSyncMode spelling.
var ErrBadSyncMode = store.ErrBadSyncMode

// MemStore is the in-memory Store — the deterministic backend the
// crash-recovery tests use (its Clone models the bytes "on disk" at a
// kill instant).
type MemStore = store.Mem

// FileStore is the production Store: one snapshot file and one append-only
// WAL file per shard under a directory, with atomic snapshot replacement.
type FileStore = store.File

// NewMemStore returns an empty in-memory durability store.
func NewMemStore() *MemStore { return store.NewMem() }

// NewFileStore opens (creating if needed) a file-backed durability store
// rooted at dir.
func NewFileStore(dir string) (*FileStore, error) { return store.NewFile(dir) }

// Handler returns the server's versioned HTTP JSON API.
func Handler(s *Server) http.Handler { return serve.Handler(s) }

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4) — the same body GET /v1/metrics
// serves.  Use it to push metrics through a custom transport.
func WritePrometheus(w io.Writer, m *MetricsSnapshot) {
	serve.WritePrometheus(w, m)
}

// ListenAndServe binds addr, reports the bound address through onReady
// (useful with ":0"), and serves the HTTP API until ctx is cancelled, then
// shuts down gracefully.
func ListenAndServe(ctx context.Context, addr string, s *Server, onReady func(boundAddr string)) error {
	return serve.ListenAndServe(ctx, addr, s, onReady)
}

// GenerateRequests builds the deterministic, time-sorted request sequence
// for a catalog under a load configuration (fixed seed = identical
// replay).
func GenerateRequests(cat Catalog, cfg LoadConfig) ([]Request, error) {
	return serve.GenerateRequests(cat, cfg)
}

// RunDriver replays a request sequence against an in-process server in
// strict time order and drains it at the horizon — the deterministic path
// the equivalence tests pin against the batch simulator and the batch
// planners.  Cancelling ctx stops the replay with an error wrapping
// ctx.Err(); the server stays drainable and must still be Closed.
func RunDriver(ctx context.Context, s *Server, reqs []Request, horizon float64) (*LoadReport, error) {
	return serve.RunDriver(ctx, s, reqs, horizon)
}

// RunHTTPDriver replays a request sequence against a live HTTP endpoint
// with the given concurrency, measuring round-trip latencies.  Cancelling
// ctx stops dispatching and aborts in-flight requests.
func RunHTTPDriver(ctx context.Context, baseURL string, reqs []Request, concurrency int) (*LoadReport, error) {
	return serve.RunHTTPDriver(ctx, baseURL, reqs, concurrency)
}
