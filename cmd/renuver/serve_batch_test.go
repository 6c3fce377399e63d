package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	renuver "repro"
	"repro/internal/obs"
)

// batchTestMux builds a serve mux over a base-backed session (batch mode
// needs the base instance as its donor pool and schema source).
func batchTestMux(t *testing.T, limits serveLimits) (http.Handler, *gate, *renuver.MetricsRecorder) {
	t.Helper()
	metrics := renuver.NewMetricsRecorder()
	base, err := renuver.LoadCSVString(paperCSV)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := renuver.DiscoverRFDs(base, renuver.DiscoveryOptions{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := renuver.NewSession(base, sigma, renuver.WithRecorder(metrics))
	if err != nil {
		t.Fatal(err)
	}
	mux, g := newServeMux(sess, metrics, nil, renuver.NewSpanRing(8), quietLogger(), limits)
	return mux, g, metrics
}

func postBatch(mux http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/impute", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

func decodeBatchResponse(t *testing.T, rec *httptest.ResponseRecorder) batchResponse {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("batch response Content-Type = %q", ct)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding batch response: %v\n%s", err, rec.Body.String())
	}
	return resp
}

// The core batch contract: independent tuples in one request, imputed
// tuples keyed by attribute name, per-tuple error envelopes for the
// malformed ones, and totals that add up.
func TestServeBatchMixedValidity(t *testing.T) {
	mux, _, _ := batchTestMux(t, serveLimits{})

	body := `{"tuples": [
		{"Name": "Granita", "City": null, "Phone": "310/456-0488"},
		{"Name": "Granita", "Nope": "x"},
		{"Name": "Spago", "City": 7, "Phone": "310/652-4025"},
		{"Name": "Spago", "City": "W. Hollywood", "Phone": "310/652-4025"}
	]}`
	rec := postBatch(mux, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch POST = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatchResponse(t, rec)
	if resp.Tuples != 4 || resp.Succeeded != 2 || resp.Failed != 2 {
		t.Fatalf("totals = %d/%d/%d, want 4 tuples, 2 succeeded, 2 failed",
			resp.Tuples, resp.Succeeded, resp.Failed)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("results = %d", len(resp.Results))
	}

	// Tuple 0: the paper's recoverable City, imputed from the base.
	r0 := resp.Results[0]
	if r0.Error != "" {
		t.Fatalf("tuple 0 errored: %s (%s)", r0.Error, r0.Code)
	}
	if got := r0.Tuple["City"]; got != "Malibu" {
		t.Errorf("tuple 0 City = %v, want Malibu", got)
	}
	if len(r0.Imputed) != 1 || r0.Imputed[0] != "City" || r0.Missing != 1 {
		t.Errorf("tuple 0 imputed = %v missing = %d", r0.Imputed, r0.Missing)
	}
	if resp.Imputed != 1 {
		t.Errorf("total imputed = %d, want 1", resp.Imputed)
	}

	// Tuple 1: unknown attribute — its own envelope, batch unaffected.
	if r1 := resp.Results[1]; r1.Code != "bad_tuple" || !strings.Contains(r1.Error, "Nope") {
		t.Errorf("tuple 1 = %+v, want bad_tuple naming the attribute", r1)
	}
	// Tuple 2: type mismatch against the schema kind.
	if r2 := resp.Results[2]; r2.Code != "bad_tuple" || !strings.Contains(r2.Error, "string") {
		t.Errorf("tuple 2 = %+v, want bad_tuple type mismatch", r2)
	}
	// Tuple 3: complete tuple, nothing to impute.
	if r3 := resp.Results[3]; r3.Error != "" || len(r3.Imputed) != 0 || r3.Missing != 0 {
		t.Errorf("tuple 3 = %+v, want clean pass-through", r3)
	}
}

// A bare JSON array is accepted as shorthand for {"tuples": [...]}, and
// absent attributes mean missing just like explicit nulls.
func TestServeBatchBareArrayAndAbsentAttrs(t *testing.T) {
	mux, _, _ := batchTestMux(t, serveLimits{})
	rec := postBatch(mux, `[{"Name": "Granita", "Phone": "310/456-0488"}]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("bare array POST = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatchResponse(t, rec)
	if resp.Succeeded != 1 {
		t.Fatalf("totals = %+v", resp)
	}
	if got := resp.Results[0].Tuple["City"]; got != "Malibu" {
		t.Errorf("absent City imputed to %v, want Malibu", got)
	}
}

func TestServeBatchRejectsBadRequests(t *testing.T) {
	mux, _, _ := batchTestMux(t, serveLimits{})
	for name, tc := range map[string]struct {
		body string
		code string
	}{
		"malformed JSON":     {`{"tuples": [`, "bad_request"},
		"wrong envelope":     {`{"rows": []}`, "bad_request"},
		"empty batch":        {`{"tuples": []}`, "bad_request"},
		"empty bare array":   {`[]`, "bad_request"},
		"non-object element": {`[42]`, "bad_request"},
	} {
		rec := postBatch(mux, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d: %s", name, rec.Code, rec.Body.String())
			continue
		}
		if _, code := decodeEnvelope(t, rec); code != tc.code {
			t.Errorf("%s: code = %q, want %q", name, code, tc.code)
		}
	}
}

// Batch mode needs the base instance; a Σ-only session answers 422.
func TestServeBatchRequiresBase(t *testing.T) {
	metrics := renuver.NewMetricsRecorder()
	sess := testSession(t, metrics) // base-less: NewSession(nil, sigma)
	mux, _ := newServeMux(sess, metrics, nil, nil, quietLogger(), serveLimits{})
	rec := postBatch(mux, `[{"Name": "Granita"}]`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("base-less batch = %d: %s", rec.Code, rec.Body.String())
	}
	if _, code := decodeEnvelope(t, rec); code != "unprocessable" {
		t.Fatalf("422 code = %q", code)
	}
}

// The batch pays admission once: a saturated gate sheds the whole batch
// with the same 429 + Retry-After contract as the CSV path.
func TestServeBatchBackpressure(t *testing.T) {
	limits := serveLimits{pool: 1, queue: 1}
	mux, g, metrics := batchTestMux(t, limits)

	hold, err := g.acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	g.waiting.Add(int64(limits.queueDepth())) // simulate a full queue
	rec := postBatch(mux, `[{"Name": "Granita", "City": null, "Phone": "310/456-0488"}]`)
	g.waiting.Add(-int64(limits.queueDepth()))
	hold()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated batch = %d: %s", rec.Code, rec.Body.String())
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

	// Released gate: the same batch is admitted and served.
	rec = postBatch(mux, `[{"Name": "Granita", "City": null, "Phone": "310/456-0488"}]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release batch = %d: %s", rec.Code, rec.Body.String())
	}
}

// Cancellation mid-batch: completed tuples keep their results, the
// remaining tuples get per-tuple timeout envelopes, and the response is
// still a 200 partial. The batchTupleHook seam makes the cancellation
// point deterministic.
func TestServeBatchMidBatchCancellation(t *testing.T) {
	mux, _, metrics := batchTestMux(t, serveLimits{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batchTupleHook = func(i int) {
		if i == 1 {
			cancel()
		}
	}
	defer func() { batchTupleHook = nil }()

	body := `{"tuples": [
		{"Name": "Granita", "City": null, "Phone": "310/456-0488"},
		{"Name": "Spago", "City": null, "Phone": "310/652-4025"},
		{"Name": "Spago", "City": null, "Phone": "310/652-4025"}
	]}`
	req := httptest.NewRequest("POST", "/v1/impute", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("canceled batch = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBatchResponse(t, rec)
	if resp.Succeeded != 1 || resp.Failed != 2 {
		t.Fatalf("totals = %+v, want 1 succeeded / 2 failed", resp)
	}
	if got := resp.Results[0].Tuple["City"]; got != "Malibu" {
		t.Errorf("completed tuple 0 City = %v, want Malibu", got)
	}
	for i := 1; i < 3; i++ {
		if resp.Results[i].Code != "timeout" {
			t.Errorf("tuple %d code = %q, want timeout", i, resp.Results[i].Code)
		}
	}
	if metrics.Counter(obs.CtrServeTimeouts) == 0 {
		t.Error("serve_timeouts not counted for the mid-batch expiry")
	}
}

// A deadline already expired when the batch starts is one request-level
// 504, not N per-tuple envelopes.
func TestServeBatchExpiredBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mux, _, _ := batchTestMux(t, serveLimits{})
	req := httptest.NewRequest("POST", "/v1/impute",
		strings.NewReader(`[{"Name": "Granita"}]`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	// The expired context is seen either at admission (503) or at the
	// pre-batch deadline check (504); both are request-level rejections.
	if rec.Code != http.StatusGatewayTimeout && rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired batch = %d: %s", rec.Code, rec.Body.String())
	}
}

// The JSON branch hangs off the same /impute route: the CSV contract is
// untouched, and unsupported content types still 415 naming both forms.
func TestServeBatchContentNegotiation(t *testing.T) {
	mux, _, _ := batchTestMux(t, serveLimits{})

	req := httptest.NewRequest("POST", "/impute", strings.NewReader(paperCSV))
	req.Header.Set("Content-Type", "text/csv")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/csv") {
		t.Fatalf("CSV POST = %d (%s)", rec.Code, rec.Header().Get("Content-Type"))
	}

	req = httptest.NewRequest("POST", "/impute", strings.NewReader("x"))
	req.Header.Set("Content-Type", "application/xml")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("XML POST = %d", rec.Code)
	}

	// Batch works identically on the unversioned alias.
	req = httptest.NewRequest("POST", "/impute",
		strings.NewReader(`[{"Name": "Granita", "City": null, "Phone": "310/456-0488"}]`))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("unversioned batch = %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeBatchResponse(t, rec); resp.Succeeded != 1 {
		t.Fatalf("unversioned batch totals = %+v", resp)
	}
}

// TestServeBatchBodyTooLarge: a JSON batch up to the cap is imputed, one
// byte more is refused with 413 before any tuple is decoded.
func TestServeBatchBodyTooLarge(t *testing.T) {
	body := `{"tuples": [{"Name": "Spago", "City": null, "Phone": "310/652-4025"}]}`
	mux, _, _ := batchTestMux(t, serveLimits{maxBody: int64(len(body))})
	if rec := postBatch(mux, body); rec.Code != http.StatusOK {
		t.Fatalf("batch at the cap = %d: %s", rec.Code, rec.Body.String())
	}
	assertTooLarge(t, postBatch(mux, body+" "))
}
