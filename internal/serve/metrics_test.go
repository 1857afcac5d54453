package serve_test

// Tests of the observability surface: the Prometheus text exposition of
// /v1/metrics (shape and internal consistency) and the guarantee that
// turning stage metering on does not perturb the scheduling itself —
// cost totals stay bit-identical to an unmetered run.

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/serve"
)

// meteredServer builds a stage-metered server over a small mixed-strategy
// catalog with a deterministic counter clock.
func meteredServer(t *testing.T) *serve.Server {
	t.Helper()
	cat := multiobject.Catalog{
		{Name: "object-01", Length: 1, Popularity: 4, Delay: 0.125, Strategy: "online"},
		{Name: "object-02", Length: 1, Popularity: 2, Delay: 0.25, Strategy: "batching"},
		{Name: "object-03", Length: 2, Popularity: 1, Delay: 0.25, Strategy: "online"},
	}
	var tick atomic.Int64
	s, err := serve.New(serve.Config{
		Catalog:     cat,
		Shards:      2,
		EpochSlots:  8,
		MeterStages: true,
		NowNanos:    func() int64 { return tick.Add(1000) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestPrometheusShape drives a metered server and validates the /v1/metrics
// exposition: HELP/TYPE lines precede every family's samples, histogram
// buckets are cumulative and monotone, the +Inf bucket equals _count, and
// every stage histogram with observations renders a _sum.
func TestPrometheusShape(t *testing.T) {
	s := meteredServer(t)
	hs := httptest.NewServer(serve.Handler(s))
	defer hs.Close()

	// Single submits, a batch, and one HTTP round trip (for the respond
	// stage histogram).
	tt := 0.0
	var reqs []serve.Request
	for i := 0; i < 40; i++ {
		tt += 0.05
		reqs = append(reqs, serve.Request{Object: []string{"object-01", "object-02", "object-03"}[i%3], T: tt})
	}
	for _, r := range reqs[:20] {
		if _, err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, res := range s.SubmitBatch(reqs[20:]) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if st, _, _ := fetch(t, "POST", hs.URL+"/v1/request", `{"object":"object-01","t":2.5}`); st != 200 {
		t.Fatalf("HTTP submit status %d", st)
	}

	_, hdr, body := fetch(t, "GET", hs.URL+"/v1/metrics", "")
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}

	type hist struct {
		buckets []float64 // le upper bounds, in encounter order
		counts  []int64   // cumulative counts
		sum     float64
		hasSum  bool
		count   int64
		hasCnt  bool
	}
	hists := map[string]*hist{}   // key: {stage=...,strategy=...}
	plain := map[string]float64{} // unlabelled counter and gauge samples
	typed := map[string]string{}
	helped := map[string]bool{}
	samples := 0
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			typed[f[0]] = f[1]
			continue
		}
		samples++
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		name := series
		labels := ""
		if b := strings.IndexByte(series, '{'); b >= 0 {
			name, labels = series[:b], series[b:]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !helped[family] || typed[family] == "" {
			t.Errorf("sample %q appears before its # HELP/# TYPE lines", line)
		}
		if !strings.HasPrefix(name, "mod_stage_latency_seconds") {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Errorf("sample %q: bad value: %v", line, err)
			}
			if labels == "" {
				plain[name] = f
			}
			continue
		}
		// Histogram series: group by the stage/strategy label pair.
		key := labels
		suffix := strings.TrimPrefix(name, "mod_stage_latency_seconds")
		if suffix == "_bucket" {
			le := labels[strings.Index(labels, `le="`)+4:]
			le = le[:strings.IndexByte(le, '"')]
			key = strings.Replace(labels, `,le="`+le+`"`, "", 1)
			ub := 0.0
			if le == "+Inf" {
				ub = 1e300
			} else {
				var err error
				if ub, err = strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("bucket %q: bad le: %v", line, err)
				}
			}
			c, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket %q: bad count: %v", line, err)
			}
			h := hists[key]
			if h == nil {
				h = &hist{}
				hists[key] = h
			}
			h.buckets = append(h.buckets, ub)
			h.counts = append(h.counts, c)
			continue
		}
		h := hists[key]
		if h == nil {
			h = &hist{}
			hists[key] = h
		}
		switch suffix {
		case "_sum":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("sum %q: %v", line, err)
			}
			h.sum, h.hasSum = f, true
		case "_count":
			c, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("count %q: %v", line, err)
			}
			h.count, h.hasCnt = c, true
		default:
			t.Fatalf("unexpected histogram series %q", line)
		}
	}
	if samples == 0 {
		t.Fatal("no samples in exposition")
	}
	if typed["mod_stage_latency_seconds"] != "histogram" || typed["mod_requests_total"] != "counter" || typed["mod_shard_queue_depth"] != "gauge" ||
		typed["mod_peak_channels"] != "gauge" || typed["mod_busy_time_total"] != "counter" {
		t.Errorf("metric types = %v, want histogram/counter/gauge families", typed)
	}
	// Nothing was submitted since the scrape, so Stats reads the same
	// finalized history.
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Peak == 0 || plain["mod_peak_channels"] != float64(st.Peak) || plain["mod_busy_time_total"] != st.BusyTime {
		t.Errorf("mod_peak_channels %v, mod_busy_time_total %v; Stats reports peak %d, busy time %v (want equal and nonzero)",
			plain["mod_peak_channels"], plain["mod_busy_time_total"], st.Peak, st.BusyTime)
	}
	if len(hists) == 0 {
		t.Fatal("no stage histograms exposed despite MeterStages")
	}
	sawRespond := false
	for key, h := range hists {
		if strings.Contains(key, `stage="respond"`) {
			sawRespond = true
		}
		if !h.hasSum || !h.hasCnt {
			t.Errorf("%s: missing _sum or _count", key)
		}
		if len(h.buckets) == 0 {
			t.Errorf("%s: no buckets", key)
			continue
		}
		for i := 1; i < len(h.counts); i++ {
			if h.counts[i] < h.counts[i-1] {
				t.Errorf("%s: bucket counts not monotone at %d: %v", key, i, h.counts)
			}
			if h.buckets[i] <= h.buckets[i-1] {
				t.Errorf("%s: bucket bounds not increasing at %d", key, i)
			}
		}
		if last := h.counts[len(h.counts)-1]; last != h.count {
			t.Errorf("%s: +Inf bucket %d != _count %d", key, last, h.count)
		}
		if h.count > 0 && h.sum < 0 {
			t.Errorf("%s: negative _sum %g", key, h.sum)
		}
	}
	if !sawRespond {
		t.Error("no respond-stage histogram after an HTTP submit")
	}
}

// TestMetricsEquivalence pins that stage metering is observation only:
// the same deterministic trace drained with metering on and off yields
// bit-identical per-object cost totals and server accounting.
func TestMetricsEquivalence(t *testing.T) {
	cat := multiobject.ZipfCatalog(6, 1.0, 0.125, 1.0)
	cat[1].Strategy = "batching"
	cat[4].Strategy = "batching"
	reqs, err := serve.GenerateRequests(cat, serve.LoadConfig{
		Horizon: 6, MeanInterArrival: 0.05, Kind: serve.PoissonArrivals, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(meter bool) *serve.DrainResult {
		var tick atomic.Int64
		cfg := serve.Config{Catalog: cat, Shards: 2, EpochSlots: 16, MeterStages: meter}
		if meter {
			cfg.NowNanos = func() int64 { return tick.Add(977) }
		}
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, r := range reqs {
			if _, err := s.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		dr, err := s.Drain(6)
		if err != nil {
			t.Fatal(err)
		}
		return dr
	}
	on, off := run(true), run(false)
	if len(on.Objects) != len(off.Objects) {
		t.Fatalf("object counts differ: %d vs %d", len(on.Objects), len(off.Objects))
	}
	for i := range on.Objects {
		a, b := on.Objects[i], off.Objects[i]
		if a.Cost != b.Cost || a.BusyTime != b.BusyTime || a.Streams != b.Streams ||
			a.Clients != b.Clients || a.SlotUnits != b.SlotUnits || a.Arrivals != b.Arrivals {
			t.Errorf("object %s: metered run diverges from unmetered:\non  %+v\noff %+v", a.Name, a, b)
		}
	}
	if on.Stats.BusyTime != off.Stats.BusyTime || on.Stats.Peak != off.Stats.Peak {
		t.Errorf("usage diverges: on (%g, %d) off (%g, %d)",
			on.Stats.BusyTime, on.Stats.Peak, off.Stats.BusyTime, off.Stats.Peak)
	}
	if on.Stats.Admitted != off.Stats.Admitted || on.Stats.Degraded != off.Stats.Degraded || on.Stats.Rejected != off.Stats.Rejected {
		t.Errorf("admission counters diverge: on %+v off %+v", on.Stats, off.Stats)
	}
}
