package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.Add(CtrImputations, 3)
	m.Add(CtrLevenshteinCalls, 7)
	m.Add(CtrLevenshteinMyers, 2)
	m.Add(CtrLevenshteinMaskRejects, 5)
	m.Time(PhaseVerify, 1500*time.Microsecond)
	m.Observe(HistAttemptsPerImputation, 1)
	m.Observe(HistAttemptsPerImputation, 4)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE renuver_imputations_total counter",
		"renuver_imputations_total 3",
		"# TYPE renuver_levenshtein_calls_total counter",
		"renuver_levenshtein_calls_total 7",
		"renuver_levenshtein_myers_total 2",
		"renuver_levenshtein_mask_rejects_total 5",
		`renuver_phase_seconds_total{phase="verify"} 0.0015`,
		`renuver_phase_events_total{phase="verify"} 1`,
		"# TYPE renuver_attempts_per_imputation histogram",
		`renuver_attempts_per_imputation_bucket{le="1"} 1`,
		`renuver_attempts_per_imputation_bucket{le="5"} 2`,
		`renuver_attempts_per_imputation_bucket{le="+Inf"} 2`,
		"renuver_attempts_per_imputation_sum 5",
		"renuver_attempts_per_imputation_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Buckets must be cumulative: le="2" includes the le="1" sample.
	if !strings.Contains(out, `renuver_attempts_per_imputation_bucket{le="2"} 1`) {
		t.Errorf("le buckets not cumulative:\n%s", out)
	}
}

func TestMetricsHandlerContentNegotiation(t *testing.T) {
	m := NewMetrics()
	m.Add(CtrImputations, 1)
	h := Handler(m)

	// Default: JSON snapshot.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("default Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"counters"`) {
		t.Errorf("default body not the JSON snapshot: %s", rec.Body.String())
	}

	// Prometheus scrape: text exposition.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Errorf("negotiated Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "renuver_imputations_total 1") {
		t.Errorf("negotiated body not exposition format: %s", rec.Body.String())
	}

	// Explicit JSON preference wins even alongside text/plain.
	req = httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json, text/plain")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Errorf("JSON-first Accept served %q", rec.Header().Get("Content-Type"))
	}
}
