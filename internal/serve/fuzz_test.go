package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzSubmitJob feeds arbitrary bytes to the POST /jobs handler of a
// server holding one small ring snapshot. The handler must never panic,
// a body that does not decode as a JobRequest must get a 4xx, and every
// response must be a JSON document. Requests are served in-process
// through a recorder; short deadlines bound any job a mutated request
// starts.
func FuzzSubmitJob(f *testing.F) {
	s := New(Options{Workers: 2, Seed: 1, Capacity: 2, DefaultDeadline: time.Second,
		CacheBytes: 1 << 20})
	f.Cleanup(s.Close)
	if _, _, err := s.LoadGraph(GraphSpec{Name: "ring", Builder: "ring", Scale: 1}); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Add([]byte(`{"tenant":"t","graph":"ring","algorithm":"pagerank","params":{"e":0.001,"d":0.85,"max_iter":5},"wait":true}`))
	f.Add([]byte(`{"tenant":"t","graph":"ring","algorithm":"sssp","params":{"root":3}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil && (rec.Code < 400 || rec.Code > 499) {
			t.Errorf("malformed body %q (%v) got status %d, want 4xx", body, err, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("status %d response is not JSON: %q", rec.Code, rec.Body.Bytes())
		}
	})
}
