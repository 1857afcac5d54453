package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/serve"
)

// fetch performs one request and returns status, headers, and body.
func fetch(t *testing.T, method, url, body string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// TestMetricsRouteSplit pins GET /v1/metrics as the Prometheus text
// exposition.
func TestMetricsRouteSplit(t *testing.T) {
	s, err := serve.New(serve.Config{Catalog: multiobject.ZipfCatalog(4, 1.0, 0.1, 1.0), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(serve.Handler(s))
	defer func() { hs.Close(); s.Close() }()
	if _, err := s.Submit(serve.Request{Object: "object-01", T: 0.5}); err != nil {
		t.Fatal(err)
	}

	status, hdr, body := fetch(t, "GET", hs.URL+serve.APIVersion+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics status = %d, want 200", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/v1/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	if hdr.Get("Deprecation") != "" {
		t.Errorf("/v1/metrics carries a Deprecation header")
	}
	if !strings.Contains(body, "# TYPE mod_requests_total counter") ||
		!strings.Contains(body, `mod_requests_total{outcome="admitted"} 1`) {
		t.Errorf("/v1/metrics is not Prometheus text:\n%s", body)
	}
}

// TestV1ObjectNotFoundJSON pins the unknown-object contract of
// /v1/objects/{name}: a uniform 404 with a JSON {"error": ...} body on
// every shard layout and for every unknown name — never a 200 with an
// empty body, and never a plain-text error.
func TestV1ObjectNotFoundJSON(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		s, err := serve.New(serve.Config{Catalog: multiobject.ZipfCatalog(5, 1.0, 0.1, 1.0), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(serve.Handler(s))
		for _, name := range []string{"none", "object-99", "object-01x", "zzz"} {
			status, hdr, body := fetch(t, "GET", hs.URL+serve.APIVersion+"/objects/"+name, "")
			if status != http.StatusNotFound {
				t.Errorf("shards=%d GET /v1/objects/%s status = %d, want 404", shards, name, status)
			}
			if ct := hdr.Get("Content-Type"); ct != "application/json" {
				t.Errorf("shards=%d /v1/objects/%s Content-Type = %q, want application/json", shards, name, ct)
			}
			var errBody struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(body), &errBody); err != nil {
				t.Errorf("shards=%d /v1/objects/%s body is not a JSON error object: %v\n%s", shards, name, err, body)
			} else if errBody.Error == "" {
				t.Errorf("shards=%d /v1/objects/%s: empty error message in %s", shards, name, body)
			}
		}
		// Known objects still answer 200 with their stats on every shard.
		for _, name := range []string{"object-01", "object-02", "object-03", "object-04", "object-05"} {
			status, _, body := fetch(t, "GET", hs.URL+serve.APIVersion+"/objects/"+name, "")
			if status != http.StatusOK || body == "" {
				t.Errorf("shards=%d GET /v1/objects/%s = %d (%d bytes), want 200 with stats", shards, name, status, len(body))
			}
		}
		hs.Close()
		s.Close()
	}
}

// TestV1BatchAdmission exercises the new /v1/requests endpoint: an array of
// requests is admitted in order through the same path as single requests,
// per-item failures don't fail the batch, and the resulting tickets are
// identical to sequential single-request submissions on an identical
// server.
func TestV1BatchAdmission(t *testing.T) {
	cat := multiobject.ZipfCatalog(4, 1.0, 0.1, 1.0)
	mk := func() *httptest.Server {
		s, err := serve.New(serve.Config{Catalog: cat, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(serve.Handler(s))
		t.Cleanup(func() { hs.Close(); s.Close() })
		return hs
	}
	batchHost, singleHost := mk(), mk()

	reqs := []serve.Request{
		{Object: "object-01", T: 0.1},
		{Object: "object-02", T: 0.2},
		{Object: "no-such-object", T: 0.3},
		{Object: "object-01", T: 0.4},
	}
	body, _ := json.Marshal(reqs)
	status, _, out := fetch(t, "POST", batchHost.URL+serve.APIVersion+"/requests", string(body))
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 (body %s)", status, out)
	}
	var results []serve.BatchResult
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("batch response: %v\n%s", err, out)
	}
	if len(results) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(results), len(reqs))
	}
	for i, req := range reqs {
		single, _ := json.Marshal(req)
		st, _, one := fetch(t, "POST", singleHost.URL+serve.APIVersion+"/request", string(single))
		if req.Object == "no-such-object" {
			if results[i].Error == "" || results[i].Ticket != nil {
				t.Errorf("batch[%d]: want per-item error for unknown object, got %+v", i, results[i])
			}
			if st != http.StatusNotFound {
				t.Errorf("single unknown object status = %d, want 404", st)
			}
			continue
		}
		if results[i].Ticket == nil {
			t.Fatalf("batch[%d]: missing ticket: %+v", i, results[i])
		}
		got, _ := json.Marshal(results[i].Ticket)
		var want serve.Ticket
		if err := json.Unmarshal([]byte(one), &want); err != nil {
			t.Fatalf("single ticket: %v", err)
		}
		wantJSON, _ := json.Marshal(want)
		if string(got) != string(wantJSON) {
			t.Errorf("batch[%d] ticket = %s, want %s (must equal the single-request path)", i, got, wantJSON)
		}
	}

	// Malformed bodies and wrong methods are rejected up front.
	if st, _, _ := fetch(t, "POST", batchHost.URL+serve.APIVersion+"/requests", `{"object":"x"}`); st != http.StatusBadRequest {
		t.Errorf("non-array batch body status = %d, want 400", st)
	}
	if st, _, _ := fetch(t, "GET", batchHost.URL+serve.APIVersion+"/requests", ""); st != http.StatusMethodNotAllowed {
		t.Errorf("GET batch status = %d, want 405", st)
	}
	// The batch endpoint is /v1-only, like every route.
	if st, _, _ := fetch(t, "POST", batchHost.URL+"/requests", string(body)); st != http.StatusNotFound {
		t.Errorf("unversioned /requests status = %d, want 404 (every route is versioned)", st)
	}
	// Oversized batches are refused before any request is admitted.
	huge := make([]serve.Request, 10001)
	for i := range huge {
		huge[i] = serve.Request{Object: "object-01", T: float64(i)}
	}
	hugeBody, _ := json.Marshal(huge)
	if st, _, _ := fetch(t, "POST", batchHost.URL+serve.APIVersion+"/requests", string(hugeBody)); st != http.StatusRequestEntityTooLarge {
		t.Errorf("10001-entry batch status = %d, want 413", st)
	}
}
