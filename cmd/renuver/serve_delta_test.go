package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	renuver "repro"
)

func postDelta(mux http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

func decodeDeltaResult(t *testing.T, rec *httptest.ResponseRecorder) renuver.DeltaResult {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("delta response Content-Type = %q", ct)
	}
	var res renuver.DeltaResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("decoding DeltaResult: %v\n%s", err, rec.Body.String())
	}
	return res
}

// TestServeDeltaEndpoint: the full live-session loop over HTTP — a
// mutation batch is applied through /v1/delta, the epoch advances (body
// and /metrics gauge agree), and a subsequent imputation answers from
// the NEW data: the update rewrites the donor neighborhood's City, so
// the same missing-City tuple imputes differently across the delta.
func TestServeDeltaEndpoint(t *testing.T) {
	mux, _, _ := batchTestMux(t, serveLimits{})

	imputeBody := `{"tuples": [{"Name": "Spago", "City": null, "Phone": "310/652-4025"}]}`
	rec := postBatch(mux, imputeBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-delta impute = %d: %s", rec.Code, rec.Body.String())
	}
	pre := decodeBatchResponse(t, rec)
	if pre.Succeeded != 1 || pre.Results[0].Tuple["City"] != "W. Hollywood" {
		t.Fatalf("pre-delta City = %v (succeeded %d)", pre.Results[0].Tuple["City"], pre.Succeeded)
	}

	// Rewrite both Spago donors' City (attr by name, then by index — the
	// two reference forms the endpoint accepts), plus one insert and one
	// delete to touch every mutation kind.
	deltaBody := `{
		"updates": [
			{"row": 3, "attr": "City", "value": "Venice"},
			{"row": 4, "attr": 1, "value": "Venice"}
		],
		"inserts": [{"Name": "Spago", "City": "Venice", "Phone": "310/652-4025"}],
		"deletes": [1]
	}`
	rec = postDelta(mux, "/v1/delta", deltaBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("delta POST = %d: %s", rec.Code, rec.Body.String())
	}
	res := decodeDeltaResult(t, rec)
	if res.Epoch != 1 || res.Inserted != 1 || res.Updated != 2 || res.Deleted != 1 || res.Rows != 5 {
		t.Fatalf("DeltaResult = %+v", res)
	}

	rec = postBatch(mux, imputeBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-delta impute = %d: %s", rec.Code, rec.Body.String())
	}
	post := decodeBatchResponse(t, rec)
	if post.Succeeded != 1 || post.Results[0].Tuple["City"] != "Venice" {
		t.Fatalf("post-delta City = %v (succeeded %d): the live mutation did not reach imputation",
			post.Results[0].Tuple["City"], post.Succeeded)
	}

	// The unversioned alias answers too, and the epoch gauge tracks.
	rec = postDelta(mux, "/delta", `{"deletes": [0]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("unversioned delta = %d: %s", rec.Code, rec.Body.String())
	}
	if res := decodeDeltaResult(t, rec); res.Epoch != 2 {
		t.Fatalf("second delta epoch = %d, want 2", res.Epoch)
	}
	mrec := httptest.NewRecorder()
	mux.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), `"session_epoch": 2`) {
		t.Fatalf("/metrics does not report session_epoch 2:\n%s", mrec.Body.String())
	}
	preq := httptest.NewRequest("GET", "/metrics", nil)
	preq.Header.Set("Accept", "text/plain")
	mrec = httptest.NewRecorder()
	mux.ServeHTTP(mrec, preq)
	if !strings.Contains(mrec.Body.String(), "session_epoch 2") {
		t.Fatalf("prometheus /metrics does not report session_epoch 2:\n%s", mrec.Body.String())
	}
	// The engine keeps no distance memo, so a base-backed session exposes
	// no cache family.
	if strings.Contains(mrec.Body.String(), "renuver_engine_cache") {
		t.Fatalf("prometheus /metrics exposes a distance-cache family:\n%s", mrec.Body.String())
	}
}

// TestServeDeltaErrorEnvelopes: every rejection path speaks the serve
// error dialect — {"error","code"} with the documented status — and
// none of them advances the epoch.
func TestServeDeltaErrorEnvelopes(t *testing.T) {
	mux, _, _ := batchTestMux(t, serveLimits{})
	cases := []struct {
		name, method, ct, body string
		status                 int
		code                   string
	}{
		{"non-POST", "GET", "application/json", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"non-JSON content type", "POST", "text/csv", `{"deletes":[0]}`, http.StatusUnsupportedMediaType, "unsupported_media_type"},
		{"malformed JSON", "POST", "application/json", `{"deletes": [`, http.StatusBadRequest, "bad_request"},
		{"unknown top-level field", "POST", "application/json", `{"drop": [0]}`, http.StatusBadRequest, "bad_request"},
		{"unknown attribute", "POST", "application/json",
			`{"updates": [{"row": 0, "attr": "Nope", "value": "x"}]}`, http.StatusBadRequest, "bad_request"},
		{"attr index out of range", "POST", "application/json",
			`{"updates": [{"row": 0, "attr": 9, "value": "x"}]}`, http.StatusBadRequest, "bad_request"},
		{"missing update value", "POST", "application/json",
			`{"updates": [{"row": 0, "attr": "City"}]}`, http.StatusBadRequest, "bad_request"},
		{"empty delta", "POST", "application/json", `{}`, http.StatusUnprocessableEntity, "unprocessable"},
		{"row out of range", "POST", "application/json", `{"deletes": [99]}`, http.StatusUnprocessableEntity, "unprocessable"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, "/v1/delta", strings.NewReader(tc.body))
		req.Header.Set("Content-Type", tc.ct)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		if _, code := decodeEnvelope(t, rec); code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, code, tc.code)
		}
	}

	// Nothing above may have published an epoch.
	rec := postDelta(mux, "/v1/delta", `{"deletes": [0]}`)
	if res := decodeDeltaResult(t, rec); res.Epoch != 1 {
		t.Fatalf("rejected deltas advanced the epoch: first accepted delta = epoch %d", res.Epoch)
	}
}

// TestServeDeltaSelfContained: a session without a base instance (the
// -rfds boot or a self-contained artifact) cannot be mutated.
func TestServeDeltaSelfContained(t *testing.T) {
	mux, _ := newTestMux(t) // testSession passes a nil base
	rec := postDelta(mux, "/v1/delta", `{"deletes": [0]}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("self-contained delta = %d, want 422", rec.Code)
	}
	if _, code := decodeEnvelope(t, rec); code != "unprocessable" {
		t.Fatalf("code %q", code)
	}
}

// TestServeDeltaOnArtifactSession: a replica booted from a compiled
// artifact accepts deltas like a compile-on-boot one — the decoded
// index and interners evolve in place — and serves coherent imputations
// afterwards.
func TestServeDeltaOnArtifactSession(t *testing.T) {
	base, err := renuver.LoadCSVString(paperCSV)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := renuver.DiscoverRFDs(base, renuver.DiscoveryOptions{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := renuver.NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	artPath := filepath.Join(t.TempDir(), "base.rnv")
	if err := sess.SaveArtifactFile(artPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := renuver.LoadSession(artPath)
	if err != nil {
		t.Fatal(err)
	}
	metrics := renuver.NewMetricsRecorder()
	mux, _ := newServeMux(loaded, metrics, nil, renuver.NewSpanRing(8), quietLogger(), serveLimits{})

	rec := postDelta(mux, "/v1/delta", `{
		"updates": [
			{"row": 3, "attr": "City", "value": "Venice"},
			{"row": 4, "attr": "City", "value": "Venice"}
		]
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("delta on artifact session = %d: %s", rec.Code, rec.Body.String())
	}
	if res := decodeDeltaResult(t, rec); res.Epoch != 1 || res.Updated != 2 {
		t.Fatalf("DeltaResult = %+v", res)
	}
	rec = postBatch(mux, `{"tuples": [{"Name": "Spago", "City": null, "Phone": "310/652-4025"}]}`)
	resp := decodeBatchResponse(t, rec)
	if resp.Succeeded != 1 || resp.Results[0].Tuple["City"] != "Venice" {
		t.Fatalf("artifact session did not serve the delta: City = %v", resp.Results[0].Tuple["City"])
	}
}

// TestDeltaCLIRoundTrip: compile an artifact, mutate it offline with
// the `renuver delta` verb, and boot the written artifact — the evolved
// instance must be what the replica serves.
func TestDeltaCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.csv")
	artPath := filepath.Join(dir, "base.rnv")
	nextPath := filepath.Join(dir, "next.rnv")
	deltaPath := filepath.Join(dir, "delta.json")
	if err := os.WriteFile(basePath, []byte(paperCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCompile([]string{"-in", basePath, "-out", artPath, "-threshold", "6"}); err != nil {
		t.Fatal(err)
	}
	deltaJSON := `{
		"updates": [
			{"row": 3, "attr": "City", "value": "Venice"},
			{"row": 4, "attr": "City", "value": "Venice"}
		],
		"inserts": [{"Name": "Spago", "City": "Venice", "Phone": "310/652-4025"}]
	}`
	if err := os.WriteFile(deltaPath, []byte(deltaJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runDelta([]string{
		"-artifact", artPath, "-delta", deltaPath, "-out", nextPath, "-summary=false",
	}); err != nil {
		t.Fatal(err)
	}

	loaded, err := renuver.LoadSession(nextPath)
	if err != nil {
		t.Fatal(err)
	}
	if ai := loaded.Artifact(); ai == nil || ai.Tuples != 6 {
		t.Fatalf("evolved artifact info = %+v, want 6 tuples", loaded.Artifact())
	}
	req, err := renuver.LoadCSVString("Name,City,Phone\nSpago,,310/652-4025\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := loaded.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation.Row(0)[1].String(); got != "Venice" {
		t.Fatalf("imputed City %q from the evolved artifact, want Venice", got)
	}

	// The original artifact is untouched (we wrote to -out).
	orig, err := renuver.LoadSession(artPath)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Artifact().Tuples != 5 {
		t.Fatalf("source artifact mutated: %d tuples", orig.Artifact().Tuples)
	}
}

// TestDeltaCLIValidation: flag and input failure modes.
func TestDeltaCLIValidation(t *testing.T) {
	dir := t.TempDir()
	if err := runDelta([]string{"-artifact", filepath.Join(dir, "x.rnv")}); err == nil {
		t.Error("missing -delta accepted")
	}
	if err := runDelta([]string{"-delta", filepath.Join(dir, "d.json")}); err == nil {
		t.Error("missing -artifact accepted")
	}
	basePath := filepath.Join(dir, "base.csv")
	artPath := filepath.Join(dir, "base.rnv")
	deltaPath := filepath.Join(dir, "delta.json")
	if err := os.WriteFile(basePath, []byte(paperCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCompile([]string{"-in", basePath, "-out", artPath, "-threshold", "6"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(deltaPath, []byte(`{"deletes": [99]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runDelta([]string{"-artifact", artPath, "-delta", deltaPath, "-summary=false"}); err == nil {
		t.Error("out-of-range delete accepted")
	}
	// The rejected run must not have clobbered the artifact in place.
	if sess, err := renuver.LoadSession(artPath); err != nil || sess.Artifact().Tuples != 5 {
		t.Fatalf("artifact damaged by rejected delta: %v", err)
	}

}

// TestServeDeltaBodyTooLarge: a delta body past the cap is refused with
// 413 and applies nothing; the next delta within the cap publishes
// epoch 1.
func TestServeDeltaBodyTooLarge(t *testing.T) {
	body := `{"deletes": [4]}`
	mux, _, _ := batchTestMux(t, serveLimits{maxBody: int64(len(body))})
	assertTooLarge(t, postDelta(mux, "/v1/delta", body+strings.Repeat(" ", 64)))
	rec := postDelta(mux, "/v1/delta", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("delta at the cap = %d: %s", rec.Code, rec.Body.String())
	}
	if res := decodeDeltaResult(t, rec); res.Epoch != 1 || res.Deleted != 1 {
		t.Fatalf("delta after the refused one = epoch %d, deleted %d; want 1, 1", res.Epoch, res.Deleted)
	}
}
