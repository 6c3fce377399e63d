package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	renuver "repro"
)

// The compile → serve -artifact pipeline end to end at the CLI layer:
// `renuver compile` writes an artifact, a session boots from it, and the
// booted replica answers /impute byte-identically to a replica that
// compiled the same base from scratch.
func TestCompileServeArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.csv")
	artPath := filepath.Join(dir, "base.rnv")
	rfdsPath := filepath.Join(dir, "sigma.rfd")
	if err := os.WriteFile(basePath, []byte(paperCSV), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := runCompile([]string{
		"-in", basePath, "-out", artPath, "-threshold", "6", "-save-rfds", rfdsPath,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(rfdsPath); err != nil {
		t.Fatalf("-save-rfds did not write: %v", err)
	}

	// Artifact-booted replica.
	loaded, err := renuver.LoadSession(artPath)
	if err != nil {
		t.Fatal(err)
	}
	ai := loaded.Artifact()
	if ai == nil || ai.FormatVersion != renuver.ArtifactFormatVersion || ai.Rules == 0 {
		t.Fatalf("loaded artifact info = %+v", ai)
	}

	// Compile-on-boot replica over the same inputs.
	base, err := renuver.LoadCSVString(paperCSV)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := renuver.LoadRFDsFile(rfdsPath, base.Schema())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := renuver.NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}

	post := func(sess *renuver.Session) *httptest.ResponseRecorder {
		metrics := renuver.NewMetricsRecorder()
		mux, _ := newServeMux(sess, metrics, nil, nil, quietLogger(), serveLimits{})
		req := httptest.NewRequest("POST", "/v1/impute", strings.NewReader(paperCSV))
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	fromArtifact, fromScratch := post(loaded), post(compiled)
	if fromArtifact.Code != http.StatusOK || fromScratch.Code != http.StatusOK {
		t.Fatalf("statuses = %d / %d", fromArtifact.Code, fromScratch.Code)
	}
	if fromArtifact.Body.String() != fromScratch.Body.String() {
		t.Errorf("artifact-booted and compile-booted replicas diverged:\n%s\n---\n%s",
			fromArtifact.Body.String(), fromScratch.Body.String())
	}
	// The stats header matches too, once the wall-clock phase breakdown
	// (never deterministic) is zeroed out.
	var statsA, statsB renuver.Stats
	if err := json.Unmarshal([]byte(fromArtifact.Header().Get("X-Renuver-Stats")), &statsA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(fromScratch.Header().Get("X-Renuver-Stats")), &statsB); err != nil {
		t.Fatal(err)
	}
	statsA.Phases, statsB.Phases = renuver.PhaseTimes{}, renuver.PhaseTimes{}
	if !reflect.DeepEqual(statsA, statsB) {
		t.Errorf("stats diverged:\n%+v\n%+v", statsA, statsB)
	}

	// The artifact-booted replica exports the artifact identity gauge;
	// the compile-booted one does not.
	scrape := func(sess *renuver.Session) string {
		metrics := renuver.NewMetricsRecorder()
		mux, _ := newServeMux(sess, metrics, nil, nil, quietLogger(), serveLimits{})
		req := httptest.NewRequest("GET", "/v1/metrics", nil)
		req.Header.Set("Accept", "text/plain")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Body.String()
	}
	if text := scrape(loaded); !strings.Contains(text, "renuver_artifact_info") {
		t.Errorf("artifact-booted /metrics lacks renuver_artifact_info:\n%s", text)
	}
	if text := scrape(compiled); strings.Contains(text, "renuver_artifact_info") {
		t.Error("compile-booted /metrics unexpectedly exports renuver_artifact_info")
	}
}

func TestCompileFlagValidation(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.csv")
	if err := os.WriteFile(basePath, []byte(paperCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCompile([]string{"-in", basePath}); err == nil {
		t.Error("missing -out accepted")
	}
	if err := runCompile([]string{"-out", filepath.Join(dir, "x.rnv")}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := runCompile([]string{
		"-in", basePath, "-out", filepath.Join(dir, "x.rnv"), "-threshold", "NaN",
	}); err == nil {
		t.Error("NaN -threshold accepted")
	}
}
