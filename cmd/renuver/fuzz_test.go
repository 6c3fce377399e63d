package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	renuver "repro"
)

// fuzzSession returns a constructor of fresh base-backed sessions over
// the paper table, with Σ discovered once.
func fuzzSession(f *testing.F) func() *renuver.Session {
	base, err := renuver.LoadCSVString(paperCSV)
	if err != nil {
		f.Fatal(err)
	}
	sigma, err := renuver.DiscoverRFDs(base, renuver.DiscoveryOptions{MaxThreshold: 6})
	if err != nil {
		f.Fatal(err)
	}
	return func() *renuver.Session {
		sess, err := renuver.NewSession(base, sigma)
		if err != nil {
			f.Fatal(err)
		}
		return sess
	}
}

func fuzzMux(sess *renuver.Session) http.Handler {
	mux, _ := newServeMux(sess, renuver.NewMetricsRecorder(), nil, renuver.NewSpanRing(8), quietLogger(), serveLimits{})
	return mux
}

// checkReply asserts the serve contract for any body: a 2xx reply, or a
// 4xx carrying the {"error","code"} envelope — never a 5xx.
func checkReply(t *testing.T, body string, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch {
	case rec.Code >= 200 && rec.Code < 300:
	case rec.Code >= 400 && rec.Code < 500:
		var env struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" || env.Code == "" {
			t.Fatalf("body %q: %d reply without an error envelope: %s", body, rec.Code, rec.Body.String())
		}
	default:
		t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body.String())
	}
}

// FuzzDecodeDelta drives arbitrary bodies through the delta decoder and
// POST /v1/delta on a fresh session each.
func FuzzDecodeDelta(f *testing.F) {
	for _, seed := range []string{
		`{"updates": [{"row": 3, "attr": "City", "value": "Venice"}, {"row": 4, "attr": 1, "value": "Venice"}],
		  "inserts": [{"Name": "Spago", "City": "Venice", "Phone": "310/652-4025"}], "deletes": [1]}`,
		`{"deletes": [0]}`,
		`{"deletes": [`,
		`{"drop": [0]}`,
		`{"updates": [{"row": 0, "attr": "Nope", "value": "x"}]}`,
		`{"updates": [{"row": 0, "attr": 9, "value": "x"}]}`,
		`{"updates": [{"row": 0, "attr": "City"}]}`,
		`{}`,
		`{"deletes": [99]}`,
		`{"updates": [{"row": -1, "attr": "City", "value": null}], "deletes": [-3]}`,
	} {
		f.Add(seed)
	}
	newSession := fuzzSession(f)
	schema := newSession().BaseView().Relation().Schema()
	f.Fuzz(func(t *testing.T, body string) {
		_, _ = decodeDelta(schema, []byte(body))
		checkReply(t, body, postDelta(fuzzMux(newSession()), "/v1/delta", body))
	})
}

// FuzzServeBatch drives arbitrary bodies through the JSON batch form of
// POST /v1/impute.
func FuzzServeBatch(f *testing.F) {
	for _, seed := range []string{
		`{"tuples": [
			{"Name": "Granita", "City": null, "Phone": "310/456-0488"},
			{"Name": "Granita", "Nope": "x"},
			{"Name": "Spago", "City": 7, "Phone": "310/652-4025"},
			{"Name": "Spago", "City": "W. Hollywood", "Phone": "310/652-4025"}]}`,
		`[{"Name": "Granita", "Phone": "310/456-0488"}]`,
		`{"tuples": [{"Name": "Spago", "City": null, "Phone": "310/652-4025"}]}`,
		`{"tuples": [`,
		`{"rows": []}`,
		`{"tuples": []}`,
		`[]`,
		`[42]`,
		`[{"Name": "Granita"}]`,
	} {
		f.Add(seed)
	}
	mux := fuzzMux(fuzzSession(f)())
	f.Fuzz(func(t *testing.T, body string) {
		checkReply(t, body, postBatch(mux, body))
	})
}
