package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func testRegistry() (*Registry, *HistVec) {
	reg := NewRegistry(nil)
	vec := NewHistVec("http_request_micros", "HTTP latency per route.", "route",
		[]string{"v1/impute", "v1/explain"}, []float64{100, 1000, 10_000})
	reg.Register(vec)
	reg.Register(NewConstGauge("build_info", "Build metadata.", 1,
		Label{"version", "test"}, Label{"goversion", "go1.x"}))
	reg.Register(NewFuncGauge("session_epoch", "Current live-session epoch.",
		func() float64 { return 3 }))
	return reg, vec
}

func TestHistVecObserve(t *testing.T) {
	_, vec := testRegistry()
	i, ok := vec.Index("v1/impute")
	if !ok {
		t.Fatal("route missing from vec")
	}
	vec.Observe(i, 150)
	vec.Observe(i, 150)
	if !vec.ObserveLabel("v1/explain", 50) {
		t.Fatal("ObserveLabel rejected known label")
	}
	if vec.ObserveLabel("nope", 1) {
		t.Fatal("ObserveLabel accepted unknown label")
	}
	vec.Observe(99, 1) // out of range: dropped, not panicking

	s := vec.Series(i)
	if s.Count != 2 || s.Sum != 300 {
		t.Fatalf("impute series = %+v", s)
	}
	name, entry := vec.SnapshotEntry()
	if name != "http_request_micros" {
		t.Fatalf("entry name = %q", name)
	}
	series := entry.(map[string]HistSnapshot)
	if series["v1/explain"].Count != 1 {
		t.Fatalf("explain series = %+v", series["v1/explain"])
	}
}

func TestRegistryPrometheusComposition(t *testing.T) {
	reg, vec := testRegistry()
	reg.Metrics().Add(CtrServeAccepted, 3)
	vec.ObserveLabel("v1/impute", 500)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"renuver_serve_accepted_total 3",
		"# HELP renuver_http_request_micros HTTP latency per route.",
		"# TYPE renuver_http_request_micros histogram",
		`renuver_http_request_micros_bucket{route="v1/impute",le="1000"} 1`,
		`renuver_http_request_micros_sum{route="v1/impute"} 500`,
		`renuver_http_request_micros_count{route="v1/impute"} 1`,
		`renuver_http_request_micros_count{route="v1/explain"} 0`,
		"# TYPE renuver_build_info gauge",
		`renuver_build_info{version="test",goversion="go1.x"} 1`,
		"# HELP renuver_session_epoch Current live-session epoch.",
		"# TYPE renuver_session_epoch gauge",
		"renuver_session_epoch 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestRegistrySnapshotExtra(t *testing.T) {
	reg, vec := testRegistry()
	vec.ObserveLabel("v1/impute", 500)
	reg.Metrics().Add(CtrImputations, 2)

	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Extra    map[string]any   `json:"extra"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("registry snapshot not parseable: %v\n%s", err, raw)
	}
	if doc.Counters["imputations"] != 2 {
		t.Fatalf("core counters not merged: %v", doc.Counters)
	}
	for _, key := range []string{"http_request_micros", "build_info", "session_epoch"} {
		if _, ok := doc.Extra[key]; !ok {
			t.Errorf("extra section missing %q: %v", key, doc.Extra)
		}
	}
}

func TestRegistryHandlerNegotiation(t *testing.T) {
	reg, _ := testRegistry()
	h := reg.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("default content type = %q", rec.Header().Get("Content-Type"))
	}
	if !strings.Contains(rec.Body.String(), `"extra"`) {
		t.Fatal("JSON body lacks extra section")
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Header().Get("Content-Type") != PrometheusContentType {
		t.Fatalf("negotiated content type = %q", rec.Header().Get("Content-Type"))
	}
	if !strings.Contains(rec.Body.String(), "renuver_build_info") {
		t.Fatal("exposition lacks collector families")
	}
}

func TestHistQuantiles(t *testing.T) {
	m := NewMetrics()
	// Bounds for queue depth: {0, 1, 2, 4, 8, 16, 32, 64, 128}.
	for i := 0; i < 100; i++ {
		m.Observe(HistServeQueueDepth, float64(i%10))
	}
	s := m.Hist(HistServeQueueDepth)
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// Values 0..9 uniformly: the true median is ~4.5; bucket
	// interpolation must land within the owning bucket (4, 8].
	if s.P50 < 4 || s.P50 > 8 {
		t.Fatalf("p50 = %v, want within (4, 8]", s.P50)
	}
	if s.P95 < 8 || s.P95 > 16 {
		t.Fatalf("p95 = %v, want within (8, 16]", s.P95)
	}
	if s.P99 < s.P95 {
		t.Fatalf("p99 %v < p95 %v", s.P99, s.P95)
	}

	// All samples in the overflow bucket: quantiles clamp to the highest
	// finite bound.
	m.Reset()
	m.Observe(HistServeQueueDepth, 1e9)
	s = m.Hist(HistServeQueueDepth)
	if s.P99 != 128 {
		t.Fatalf("overflow p99 = %v, want 128", s.P99)
	}

	// Empty histogram: all quantiles zero.
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := HistSnapshot{
		Count: 10,
		Buckets: []BucketSnapshot{
			{UpperBound: 10, Count: 5},
			{UpperBound: 20, Count: 5},
			{UpperBound: math.Inf(1), Count: 0},
		},
	}
	// Rank 5 sits exactly at the end of the first bucket.
	if q := s.Quantile(0.5); q != 10 {
		t.Fatalf("q50 = %v, want 10", q)
	}
	// Rank 9 is 4/5 into the (10, 20] bucket: 10 + 0.8*10 = 18.
	if q := s.Quantile(0.9); math.Abs(q-18) > 1e-9 {
		t.Fatalf("q90 = %v, want 18", q)
	}
}
