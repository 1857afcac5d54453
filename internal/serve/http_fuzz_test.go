package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/multiobject"
	"repro/internal/serve"
)

// fuzzHandler builds the one server every input of a fuzz target is
// posted to.  The small MaxSlotJump keeps a random far-future timestamp
// from making a shard open millions of slots.
func fuzzHandler(f *testing.F) http.Handler {
	s, err := serve.New(serve.Config{Catalog: multiobject.ZipfCatalog(4, 1.0, 0.1, 1.0), Shards: 2, MaxSlotJump: 1000})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	return serve.Handler(s)
}

// addAdmissionSeeds adds the seed corpus both admission routes share; go
// test without -fuzz runs exactly these inputs.
func addAdmissionSeeds(f *testing.F) {
	for _, seed := range []string{
		`{"object":"object-01","t":0.5}`,
		`[{"object":"object-01","t":1},{"object":"object-02","t":1.5},{"object":"nope"}]`,
		`null`,
		`[]`,
		`{}`,
		`{"object":"no-such-object","t":1}`,
		`{"object":"object-02","t":-3}`,
		`{"object":"object-03","t":1e300}`,
		"[" + strings.Repeat("{},", 10000) + "{}]",
	} {
		f.Add([]byte(seed))
	}
}

// postAdmission posts body to the admission route and checks what every
// answer must satisfy, whatever the body: one of the documented statuses,
// and a body that is valid JSON.
func postAdmission(t *testing.T, h http.Handler, route string, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, serve.APIVersion+route, bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge,
		http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		t.Fatalf("POST %s: status %d (body %.200q), answer %.200q", route, rec.Code, body, rec.Body)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("POST %s: status %d with a non-JSON answer %.200q (body %.200q)", route, rec.Code, rec.Body, body)
	}
	return rec.Code, rec.Body.Bytes()
}

// FuzzV1Request posts arbitrary bodies to POST /v1/request.
func FuzzV1Request(f *testing.F) {
	h := fuzzHandler(f)
	addAdmissionSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		postAdmission(t, h, "/request", body)
	})
}

// FuzzV1Requests posts arbitrary bodies to POST /v1/requests; a 200 must
// answer one BatchResult per entry of the body's top-level array.
func FuzzV1Requests(f *testing.F) {
	h := fuzzHandler(f)
	addAdmissionSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		status, answer := postAdmission(t, h, "/requests", body)
		if status != http.StatusOK {
			return
		}
		// The handler decodes the body's first JSON value, so count the
		// entries the same way.
		var entries []json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&entries); err != nil {
			t.Fatalf("200 for a body that is not a JSON array (%v): %.200q", err, body)
		}
		var results []serve.BatchResult
		if err := json.Unmarshal(answer, &results); err != nil {
			t.Fatalf("200 answer is not a BatchResult array (%v): %.200q", err, answer)
		}
		if len(results) != len(entries) {
			t.Fatalf("%d results for %d entries (body %.200q)", len(results), len(entries), body)
		}
	})
}
