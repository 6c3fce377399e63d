package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	renuver "repro"
	"repro/internal/distance"
	"repro/internal/obs"
)

// paperCSV is the running example of the paper (Figure 1 flavor): the
// missing City is recoverable from the Name/Phone neighborhood.
const paperCSV = `Name,City,Phone
Granita,Malibu,310/456-0488
Granita,Malibu,310/456-0488
Granita,,310/456-0488
Spago,W. Hollywood,310/652-4025
Spago,W. Hollywood,310/652-4025
`

func testSession(t *testing.T, metrics *renuver.MetricsRecorder) *renuver.Session {
	t.Helper()
	base, err := renuver.LoadCSVString(paperCSV)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := renuver.DiscoverRFDs(base, renuver.DiscoveryOptions{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) == 0 {
		t.Fatal("no RFDcs discovered on the base")
	}
	sess, err := renuver.NewSession(nil, sigma, renuver.WithRecorder(metrics))
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func newTestMux(t *testing.T) (http.Handler, *renuver.MetricsRecorder) {
	t.Helper()
	metrics := renuver.NewMetricsRecorder()
	sess := testSession(t, metrics)
	mux, _ := newServeMux(sess, metrics, nil, renuver.NewSpanRing(8), quietLogger(), serveLimits{})
	return mux, metrics
}

func TestServeImputeEndpoint(t *testing.T) {
	mux, metrics := newTestMux(t)

	req := httptest.NewRequest("POST", "/impute", strings.NewReader(paperCSV))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if strings.Count(body, "Malibu") != 3 {
		t.Fatalf("missing City not imputed:\n%s", body)
	}

	var stats renuver.Stats
	if err := json.Unmarshal([]byte(rec.Header().Get("X-Renuver-Stats")), &stats); err != nil {
		t.Fatalf("X-Renuver-Stats not parseable: %v", err)
	}
	if stats.Imputed != 1 || stats.FaultlessChecks == 0 || stats.Phases.Total <= 0 {
		t.Fatalf("stats header = %+v", stats)
	}

	// The run must have aggregated into the shared recorder, and the gate
	// must have admitted it.
	s := metrics.Snapshot()
	if s.Counters["imputations"] != 1 || s.Counters["faultless_checks"] == 0 {
		t.Fatalf("metrics after impute = %v", s.Counters)
	}
	if s.Counters["serve_accepted"] != 1 || s.Counters["serve_rejected"] != 0 {
		t.Fatalf("gate counters = %v", s.Counters)
	}
	if s.Phases["total"].Count != 1 {
		t.Fatalf("total phase = %+v", s.Phases["total"])
	}
}

func TestServeVersionedRoutes(t *testing.T) {
	mux, _ := newTestMux(t)

	// Every endpoint answers identically under /v1/ and unversioned.
	for _, path := range []string{"/v1/impute", "/impute"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(paperCSV)))
		if rec.Code != http.StatusOK {
			t.Errorf("POST %s = %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	for _, path := range []string{"/v1/metrics", "/metrics", "/v1/healthz", "/healthz"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d", path, rec.Code)
		}
	}
}

// decodeEnvelope parses the JSON error body every 4xx/5xx must carry.
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) (errMsg, code string) {
	t.Helper()
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body not the JSON envelope: %v\n%s", err, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	return env.Error, env.Code
}

func TestServeMetricsAndHealthEndpoints(t *testing.T) {
	mux, _ := newTestMux(t)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Phases   map[string]any   `json:"phases"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	if _, ok := snap.Counters["candidates_evaluated"]; !ok {
		t.Fatalf("metrics missing counters: %v", snap.Counters)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof status = %d", rec.Code)
	}
}

func TestServeImputeRejectsBadInput(t *testing.T) {
	mux, _ := newTestMux(t)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/impute", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /impute = %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
		t.Fatalf("405 Allow header = %q, want POST", allow)
	}
	if _, code := decodeEnvelope(t, rec); code != "method_not_allowed" {
		t.Fatalf("405 code = %q", code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/impute", strings.NewReader("A,B\n1\n")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("ragged CSV = %d: %s", rec.Code, rec.Body.String())
	}
	if msg, code := decodeEnvelope(t, rec); code != "bad_request" || msg == "" {
		t.Fatalf("400 envelope = (%q, %q)", msg, code)
	}
}

// assertTooLarge checks the answer to a body past the serve body cap:
// 413 with the too_large error envelope.
func assertTooLarge(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body = %d, want 413: %s", rec.Code, rec.Body.String())
	}
	if msg, code := decodeEnvelope(t, rec); code != "too_large" || msg == "" {
		t.Fatalf("413 envelope = (%q, %q)", msg, code)
	}
}

// TestServeImputeBodyTooLarge: a CSV body up to the cap is imputed, one
// byte more is refused with 413.
func TestServeImputeBodyTooLarge(t *testing.T) {
	mux, _, _ := batchTestMux(t, serveLimits{maxBody: int64(len(paperCSV))})
	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/impute", strings.NewReader(body))
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := post(paperCSV); rec.Code != http.StatusOK {
		t.Fatalf("CSV at the cap = %d: %s", rec.Code, rec.Body.String())
	}
	assertTooLarge(t, post(paperCSV+"\n"))
}

func TestServeImputeContentTypes(t *testing.T) {
	mux, _ := newTestMux(t)

	// Declared non-CSV, non-JSON bodies are refused up front
	// (application/json now routes to batch mode — see serve_batch_test.go).
	for _, ct := range []string{"application/xml", "multipart/form-data; boundary=x", "garbage/;;"} {
		req := httptest.NewRequest("POST", "/impute", strings.NewReader(paperCSV))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q = %d, want 415", ct, rec.Code)
		}
		if _, code := decodeEnvelope(t, rec); code != "unsupported_media_type" {
			t.Errorf("Content-Type %q envelope code = %q", ct, code)
		}
	}

	// CSV declarations (and none at all) go through.
	for _, ct := range []string{"", "text/csv", "text/csv; charset=utf-8", "application/csv", "text/plain"} {
		req := httptest.NewRequest("POST", "/impute", strings.NewReader(paperCSV))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("Content-Type %q = %d, want 200: %s", ct, rec.Code, rec.Body.String())
		}
	}
}

// TestServeBackpressure saturates a 1-slot pool with a held slot and a
// full queue, then asserts the next request is shed with 429 and the
// envelope — without blocking.
func TestServeBackpressure(t *testing.T) {
	metrics := renuver.NewMetricsRecorder()
	limits := serveLimits{pool: 1, queue: 1}
	g := newGate(limits, metrics)

	// Occupy the only slot.
	release, err := g.acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}

	// Fill the queue with one waiter.
	var wg sync.WaitGroup
	wg.Add(1)
	waiterIn := make(chan struct{})
	go func() {
		defer wg.Done()
		close(waiterIn)
		rel, err := g.acquire(t.Context())
		if err != nil {
			t.Errorf("queued acquire failed: %v", err)
			return
		}
		rel()
	}()
	<-waiterIn
	// Give the waiter a moment to enter the queue.
	deadline := time.Now().Add(time.Second)
	for g.waiting.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Queue full: the next arrival must shed immediately.
	if _, err := g.acquire(t.Context()); err != errQueueFull {
		t.Fatalf("overflow acquire = %v, want errQueueFull", err)
	}

	release()
	wg.Wait()

	// Both admitted acquires (the slot holder and the queued waiter)
	// recorded their queue wait; the shed arrival must not have.
	if got := metrics.Hist(obs.HistServeQueueWaitMicros).Count; got != 2 {
		t.Errorf("queue-wait observations = %d, want 2 (admitted requests only)", got)
	}

	// End to end: a mux whose pool is saturated answers 429 + envelope.
	sess := testSession(t, metrics)
	mux, muxGate := newServeMux(sess, metrics, nil, nil, quietLogger(), limits)
	hold, err := muxGate.acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	muxGate.waiting.Add(int64(limits.queueDepth())) // simulate a full queue
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/impute", strings.NewReader(paperCSV)))
	muxGate.waiting.Add(-int64(limits.queueDepth()))
	hold()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d: %s", rec.Code, rec.Body.String())
	}
	if _, code := decodeEnvelope(t, rec); code != "queue_full" {
		t.Fatalf("429 code = %q", code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if metrics.Counter(obs.CtrServeRejected) == 0 {
		t.Error("serve_rejected not counted")
	}
	// The held mux slot is the only further admission; the shed POST
	// added nothing to the queue-wait distribution.
	if got := metrics.Hist(obs.HistServeQueueWaitMicros).Count; got != 3 {
		t.Errorf("queue-wait observations after shed = %d, want 3", got)
	}
}

func TestServeRequestTimeout(t *testing.T) {
	metrics := renuver.NewMetricsRecorder()
	sess := testSession(t, metrics)
	// A 1ns deadline expires before the run starts; the session's O(1)
	// fast path turns it into an immediate 504.
	mux, _ := newServeMux(sess, metrics, nil, nil, quietLogger(), serveLimits{requestTimeout: time.Nanosecond})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/impute", strings.NewReader(paperCSV)))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline = %d: %s", rec.Code, rec.Body.String())
	}
	if _, code := decodeEnvelope(t, rec); code != "timeout" {
		t.Fatalf("504 code = %q", code)
	}
	if metrics.Counter(obs.CtrServeTimeouts) == 0 {
		t.Error("serve_timeouts not counted")
	}
}

// panicHandler stands in for a handler bug; the recovery middleware must
// contain it to the one request.
func TestServePanicIsolation(t *testing.T) {
	metrics := renuver.NewMetricsRecorder()
	inner := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	h := recoverPanics(inner, metrics, quietLogger())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/impute", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicked handler = %d", rec.Code)
	}
	if _, code := decodeEnvelope(t, rec); code != "internal" {
		t.Fatalf("500 code = %q", code)
	}
	if metrics.Counter(obs.CtrServePanics) != 1 {
		t.Errorf("serve_panics = %d", metrics.Counter(obs.CtrServePanics))
	}
	// The next request on the same handler chain still works.
	rec = httptest.NewRecorder()
	recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), metrics, quietLogger()).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up request = %d", rec.Code)
	}
}

func TestServeMetricsPrometheusNegotiation(t *testing.T) {
	mux, _ := newTestMux(t)
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("negotiated Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE renuver_") {
		t.Fatalf("body not Prometheus exposition:\n%s", rec.Body.String())
	}
}

func TestServeTraceLastEndpoint(t *testing.T) {
	base, err := renuver.LoadCSVString(paperCSV)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := renuver.DiscoverRFDs(base, renuver.DiscoveryOptions{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	metrics := renuver.NewMetricsRecorder()
	tracer := renuver.NewRingTracer(0, 1)
	sess, err := renuver.NewSession(nil, sigma,
		renuver.WithRecorder(metrics), renuver.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	mux, _ := newServeMux(sess, metrics, tracer, nil, quietLogger(), serveLimits{})

	// Before any run: an empty array, not an error.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace/last", nil))
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Fatalf("empty trace = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/impute", strings.NewReader(paperCSV)))
	if rec.Code != http.StatusOK {
		t.Fatalf("impute = %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace/last", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace/last = %d", rec.Code)
	}
	var events []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(events) == 0 || events[0]["kind"] != "cell_started" {
		t.Fatalf("trace events = %v", events)
	}
	last := events[len(events)-1]["kind"]
	if last != "cell_resolved" && last != "cell_abandoned" {
		t.Fatalf("trace ends with %v", last)
	}

	// Tracing off: the endpoint 404s instead of lying with [].
	muxOff, _ := newServeMux(sess, metrics, nil, nil, quietLogger(), serveLimits{})
	rec = httptest.NewRecorder()
	muxOff.ServeHTTP(rec, httptest.NewRequest("GET", "/trace/last", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("trace/last without tracer = %d, want 404", rec.Code)
	}
}

// TestServeSpanTelemetry drives a traced request end to end: the
// response must identify the request (X-Request-Id, a traceparent
// continuing the inbound trace with this server's span id), and
// /debug/spans must return its full span tree down to the per-cell
// candidate_search / ranking / verify phases.
func TestServeSpanTelemetry(t *testing.T) {
	mux, _ := newTestMux(t)
	const (
		traceID    = "0123456789abcdef0123456789abcdef"
		upstreamID = "00f067aa0ba902b7"
	)
	req := httptest.NewRequest("POST", "/v1/impute", strings.NewReader(paperCSV))
	req.Header.Set("traceparent", "00-"+traceID+"-"+upstreamID+"-01")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("impute = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-Id"); got != traceID {
		t.Errorf("X-Request-Id = %q, want the upstream trace id %q", got, traceID)
	}
	tp := rec.Header().Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+traceID+"-") {
		t.Errorf("response traceparent %q does not continue the upstream trace", tp)
	}
	if strings.Contains(tp, upstreamID) {
		t.Errorf("response traceparent %q echoes the upstream span id instead of this server's", tp)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/spans = %d: %s", rec.Code, rec.Body.String())
	}
	var trees []*renuver.SpanNode
	if err := json.Unmarshal(rec.Body.Bytes(), &trees); err != nil {
		t.Fatalf("/debug/spans not JSON: %v\n%s", err, rec.Body.String())
	}
	var root *renuver.SpanNode
	for _, tr := range trees {
		if tr.TraceID == traceID {
			root = tr
		}
	}
	if root == nil {
		t.Fatalf("no trace %s in /debug/spans:\n%s", traceID, rec.Body.String())
	}
	if root.Name != "POST /impute" {
		t.Errorf("root span name = %q, want POST /impute", root.Name)
	}
	if root.ParentID != upstreamID {
		t.Errorf("root parent = %q, want the upstream span id %q", root.ParentID, upstreamID)
	}
	// JSON numbers decode as float64.
	if root.Attrs["route"] != "/impute" || root.Attrs["status"] != float64(http.StatusOK) {
		t.Errorf("root attrs = %v, want route=/impute status=200", root.Attrs)
	}
	var impute *renuver.SpanNode
	for _, c := range root.Children {
		if c.Name == "impute" {
			impute = c
		}
	}
	if impute == nil {
		t.Fatalf("request trace has no impute child: %+v", root.Children)
	}
	phases := map[string]int{}
	cells := 0
	for _, c := range impute.Children {
		if c.Name == "cell" {
			cells++
			for _, p := range c.Children {
				phases[p.Name]++
			}
		}
	}
	if cells == 0 {
		t.Fatal("impute span has no cell children")
	}
	for _, want := range []string{"candidate_search", "ranking", "verify"} {
		if phases[want] == 0 {
			t.Errorf("no %s span under any cell: %v", want, phases)
		}
	}

	// A request without a span ring still gets its identity headers,
	// but /debug/spans is an honest 404.
	metrics := renuver.NewMetricsRecorder()
	muxOff, _ := newServeMux(testSession(t, metrics), metrics, nil, nil, quietLogger(), serveLimits{})
	rec = httptest.NewRecorder()
	muxOff.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Header().Get("X-Request-Id") == "" || rec.Header().Get("traceparent") == "" {
		t.Error("ring-less request missing identity headers")
	}
	rec = httptest.NewRecorder()
	muxOff.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/debug/spans without a ring = %d, want 404", rec.Code)
	}
}

// TestServeMetricsRegistryExposition pins the composed /metrics surface:
// per-route latency and queue-wait histograms with HELP/TYPE preambles,
// the build-info gauge, and the labeled families in the JSON snapshot's
// extra section.
func TestServeMetricsRegistryExposition(t *testing.T) {
	mux, _ := newTestMux(t)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/impute", strings.NewReader(paperCSV)))
	if rec.Code != http.StatusOK {
		t.Fatalf("impute = %d: %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP renuver_http_request_micros ",
		"# TYPE renuver_http_request_micros histogram",
		`renuver_http_request_micros_bucket{route="/impute",le="+Inf"} 1`,
		"# HELP renuver_serve_queue_wait_micros ",
		"renuver_serve_queue_wait_micros_count 1",
		"# HELP renuver_build_info ",
		`renuver_build_info{version="dev",go_version="` + runtime.Version() +
			`",levenshtein_kernel="` + distance.ActiveKernel().String() + `"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap struct {
		Histograms map[string]renuver.HistogramSnapshot `json:"histograms"`
		Extra      map[string]json.RawMessage           `json:"extra"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Histograms["serve_queue_wait_micros"].Count != 1 {
		t.Errorf("queue-wait snapshot = %+v", snap.Histograms["serve_queue_wait_micros"])
	}
	for _, key := range []string{"http_request_micros", "build_info"} {
		if _, ok := snap.Extra[key]; !ok {
			t.Errorf("JSON snapshot extra missing %q: %v", key, snap.Extra)
		}
	}
	var routes map[string]renuver.HistogramSnapshot
	if err := json.Unmarshal(snap.Extra["http_request_micros"], &routes); err != nil {
		t.Fatalf("http_request_micros extra: %v", err)
	}
	if routes["/impute"].Count != 1 {
		t.Errorf("/impute latency series = %+v", routes["/impute"])
	}
}

func TestImputerOptionsValidation(t *testing.T) {
	if _, err := imputerOptions("sideways", "lhs"); err == nil {
		t.Fatal("bad order accepted")
	}
	if _, err := imputerOptions("asc", "maybe"); err == nil {
		t.Fatal("bad verify accepted")
	}
	opts, err := imputerOptions("desc", "both")
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 2 {
		t.Fatalf("opts = %d, want 2", len(opts))
	}
}
