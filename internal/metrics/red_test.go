package metrics

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

func TestREDMiddleware(t *testing.T) {
	r := New()
	red := NewRED(r)

	ok := red.Wrap("/v1/jobs/{id}", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}))
	implicit := red.Wrap("/healthz", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	boom := red.Wrap("/v1/dist/claim", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		ok.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/abc", nil))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	implicit.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate through RED")
			}
		}()
		boom.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/dist/claim", nil))
	}()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")
	for _, want := range []string{
		`qisimd_http_requests_total{route="/v1/jobs/{id}",method="GET",code="202"} 3`,
		`qisimd_http_requests_total{route="/healthz",method="GET",code="200"} 1`,
		`qisimd_http_requests_total{route="/v1/dist/claim",method="POST",code="aborted"} 1`,
		`qisimd_http_request_seconds_count{route="/v1/jobs/{id}"} 3`,
		// An aborted request still records its latency.
		`qisimd_http_request_seconds_count{route="/v1/dist/claim"} 1`,
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

func TestREDStatusWriterFlushAndUnwrap(t *testing.T) {
	r := New()
	red := NewRED(r)
	flushed := false
	h := red.Wrap("/v1/jobs/{id}/events", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
			flushed = true
		}
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/j/events", nil))
	if !flushed {
		t.Fatal("statusWriter must satisfy http.Flusher for SSE")
	}
	if !rec.Flushed {
		t.Fatal("Flush must forward to the underlying writer")
	}
}
