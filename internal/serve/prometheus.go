package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"repro/internal/stats"
)

// This file renders a MetricsSnapshot in the Prometheus text exposition
// format (version 0.0.4) behind GET /v1/metrics.  No client library is
// involved: the metric families are few and fixed, and the histograms
// are already fixed-bucket log-scale values, so the renderer is a direct
// fmt.Fprintf of the format — counters and gauges first, then one
// cumulative _bucket/_sum/_count series per stage × strategy.

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetricsProm answers GET /v1/metrics with the text exposition.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	m, err := s.Metrics()
	if err != nil {
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	WritePrometheus(w, &m)
}

// WritePrometheus writes the snapshot in the Prometheus text format.
func WritePrometheus(w io.Writer, m *MetricsSnapshot) {
	fmt.Fprint(w, "# HELP mod_requests_total Requests by admission outcome (rejected_pressure = refused by queue backpressure before reaching a shard).\n")
	fmt.Fprint(w, "# TYPE mod_requests_total counter\n")
	fmt.Fprintf(w, "mod_requests_total{outcome=\"admitted\"} %d\n", m.Stats.Admitted)
	fmt.Fprintf(w, "mod_requests_total{outcome=\"degraded\"} %d\n", m.Stats.Degraded)
	fmt.Fprintf(w, "mod_requests_total{outcome=\"rejected\"} %d\n", m.Stats.Rejected)
	fmt.Fprintf(w, "mod_requests_total{outcome=\"rejected_pressure\"} %d\n", m.Stats.RejectedPressure)
	fmt.Fprintf(w, "mod_requests_total{outcome=\"unknown\"} %d\n", m.Stats.Unknown)

	fmt.Fprint(w, "# HELP mod_live_channels Streams currently transmitting (the live channel gauge).\n")
	fmt.Fprint(w, "# TYPE mod_live_channels gauge\n")
	fmt.Fprintf(w, "mod_live_channels %d\n", m.Stats.LiveChannels)

	fmt.Fprint(w, "# HELP mod_peak_channels Historical peak of simultaneously transmitting streams, over finalized streams.\n")
	fmt.Fprint(w, "# TYPE mod_peak_channels gauge\n")
	fmt.Fprintf(w, "mod_peak_channels %d\n", m.Stats.Peak)

	fmt.Fprint(w, "# HELP mod_busy_time_total Finalized bandwidth: the summed durations of finalized streams, in catalog time units.\n")
	fmt.Fprint(w, "# TYPE mod_busy_time_total counter\n")
	fmt.Fprintf(w, "mod_busy_time_total %g\n", m.Stats.BusyTime)

	fmt.Fprint(w, "# HELP mod_wal_flushes_total Durability-store flushes (WAL group commits); the ratio of admitted requests to flushes is the group-commit coalescing factor.\n")
	fmt.Fprint(w, "# TYPE mod_wal_flushes_total counter\n")
	fmt.Fprintf(w, "mod_wal_flushes_total %d\n", m.Stats.WALFlushes)

	fmt.Fprint(w, "# HELP mod_shard_queue_depth Requests submitted but not yet dequeued by the shard's event loop.\n")
	fmt.Fprint(w, "# TYPE mod_shard_queue_depth gauge\n")
	for _, sh := range m.Stats.Shards {
		fmt.Fprintf(w, "mod_shard_queue_depth{shard=\"%d\"} %d\n", sh.Shard, sh.QueueDepth)
	}
	fmt.Fprint(w, "# HELP mod_shard_queue_high_water Maximum queue depth ever observed on the shard.\n")
	fmt.Fprint(w, "# TYPE mod_shard_queue_high_water gauge\n")
	for _, sh := range m.Stats.Shards {
		fmt.Fprintf(w, "mod_shard_queue_high_water{shard=\"%d\"} %d\n", sh.Shard, sh.HighWater)
	}
	fmt.Fprint(w, "# HELP mod_shard_queue_capacity Shard channel buffer (256).\n")
	fmt.Fprint(w, "# TYPE mod_shard_queue_capacity gauge\n")
	for _, sh := range m.Stats.Shards {
		fmt.Fprintf(w, "mod_shard_queue_capacity{shard=\"%d\"} %d\n", sh.Shard, sh.QueueCap)
	}
	fmt.Fprint(w, "# HELP mod_shard_dequeued_total Requests the shard's event loop has dequeued.\n")
	fmt.Fprint(w, "# TYPE mod_shard_dequeued_total counter\n")
	for _, sh := range m.Stats.Shards {
		fmt.Fprintf(w, "mod_shard_dequeued_total{shard=\"%d\"} %d\n", sh.Shard, sh.Dequeued)
	}

	fmt.Fprint(w, "# HELP mod_stage_latency_seconds Per-request admission latency decomposed by stage (queue wait, plan, epoch-replan share, HTTP respond) and strategy; populated when stage metering is on.\n")
	fmt.Fprint(w, "# TYPE mod_stage_latency_seconds histogram\n")
	for i := range m.Stages {
		ss := &m.Stages[i]
		writePromHistogram(w, "queue", ss.Strategy, &ss.Queue)
		writePromHistogram(w, "plan", ss.Strategy, &ss.Plan)
		writePromHistogram(w, "replan", ss.Strategy, &ss.Replan)
		writePromHistogram(w, "respond", ss.Strategy, &ss.Respond)
	}
}

// writePromHistogram writes one cumulative _bucket/_sum/_count series.
// Empty histograms are skipped so an unmetered server exposes only
// counters and gauges.
func writePromHistogram(w io.Writer, stage, strategy string, h *stats.LogHistogram) {
	if h.Count == 0 {
		return
	}
	var cum int64
	for i := 0; i < stats.HistogramBuckets; i++ {
		cum += h.Counts[i]
		le := "+Inf"
		if ub := stats.HistogramUpperBound(i); ub != math.MaxInt64 {
			le = strconv.FormatFloat(float64(ub)/1e9, 'g', -1, 64)
		}
		fmt.Fprintf(w, "mod_stage_latency_seconds_bucket{stage=%q,strategy=%q,le=%q} %d\n", stage, strategy, le, cum)
	}
	fmt.Fprintf(w, "mod_stage_latency_seconds_sum{stage=%q,strategy=%q} %g\n", stage, strategy, float64(h.SumNanos)/1e9)
	fmt.Fprintf(w, "mod_stage_latency_seconds_count{stage=%q,strategy=%q} %d\n", stage, strategy, h.Count)
}
