package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/serve"
)

func newHTTPServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	cat := multiobject.ZipfCatalog(4, 1.0, 0.1, 1.0)
	s, err := serve.New(serve.Config{Catalog: cat, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(serve.Handler(s))
	t.Cleanup(func() { hs.Close(); s.Close() })
	return s, hs
}

func TestHTTPRequestStatsObjects(t *testing.T) {
	_, hs := newHTTPServer(t)

	resp, err := http.Post(hs.URL+serve.APIVersion+"/request", "application/json",
		strings.NewReader(`{"object":"object-01","t":0.42}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/request = %d, want 200", resp.StatusCode)
	}
	var tk serve.Ticket
	if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
		t.Fatal(err)
	}
	if tk.Decision != serve.Admitted || tk.Slot != 4 {
		t.Fatalf("ticket = %+v, want admitted slot 4", tk)
	}

	resp, err = http.Get(hs.URL + serve.APIVersion + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 || len(st.Objects) != 4 {
		t.Fatalf("stats = %+v, want 1 admitted over 4 objects", st)
	}

	resp, err = http.Get(hs.URL + serve.APIVersion + "/objects/object-01")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var os serve.ObjectStats
	if err := json.NewDecoder(resp.Body).Decode(&os); err != nil {
		t.Fatal(err)
	}
	if os.Name != "object-01" || os.Arrivals != 1 {
		t.Fatalf("object stats = %+v", os)
	}
}

func TestHTTPErrorsAndHealth(t *testing.T) {
	_, hs := newHTTPServer(t)

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/request", `{"object":"missing"}`, http.StatusNotFound},
		{"POST", "/v1/request", `{bad json`, http.StatusBadRequest},
		{"GET", "/v1/request", "", http.StatusMethodNotAllowed},
		{"GET", "/v1/objects/none", "", http.StatusNotFound},
		{"GET", "/v1/healthz", "", http.StatusOK},
		{"GET", "/v1/metrics", "", http.StatusOK},
		// Unregistered paths, the pre-/v1 spellings included, answer the
		// same JSON 404 as every other error.
		{"GET", "/stats", "", http.StatusNotFound},
		{"POST", "/request", `{"object":"object-01"}`, http.StatusNotFound},
		{"GET", "/nope", "", http.StatusNotFound},
	} {
		status, _, body := fetch(t, tc.method, hs.URL+tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, status, tc.want)
		}
		var errBody struct {
			Error string `json:"error"`
		}
		if tc.want == http.StatusNotFound && (json.Unmarshal([]byte(body), &errBody) != nil || errBody.Error == "") {
			t.Errorf("%s %s: 404 body is not a JSON error object: %q", tc.method, tc.path, body)
		}
	}
}

// TestHTTPDriver runs the closed-loop HTTP load generator against a live
// endpoint and checks the report agrees with the server's own counters.
func TestHTTPDriver(t *testing.T) {
	s, hs := newHTTPServer(t)
	reqs, err := serve.GenerateRequests(
		multiobject.ZipfCatalog(4, 1.0, 0.1, 1.0),
		serve.LoadConfig{Horizon: 3, MeanInterArrival: 0.05, Kind: serve.PoissonArrivals, Seed: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := serve.RunHTTPDriver(context.Background(), hs.URL, reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != len(reqs) {
		t.Fatalf("admitted %d of %d requests", rep.Admitted, len(reqs))
	}
	if rep.Latency.N != len(reqs) {
		t.Fatalf("measured %d latencies, want %d", rep.Latency.N, len(reqs))
	}
	if rep.Stats == nil || rep.Stats.Admitted != int64(len(reqs)) {
		t.Fatalf("server stats = %+v, want %d admitted", rep.Stats, len(reqs))
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != int64(len(reqs)) {
		t.Fatalf("server-side admitted = %d, want %d", st.Admitted, len(reqs))
	}
	var out strings.Builder
	rep.Render(&out)
	if !strings.Contains(out.String(), "requests:") {
		t.Error("report rendering missing request count")
	}
}
