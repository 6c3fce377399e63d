package main

// Batch mode of POST /v1/impute: a JSON body carrying many tuples in
// one request. Where the CSV path pays admission, parsing, and span
// bookkeeping per relation, the batch path pays admission once for the
// whole batch and runs each tuple as a child span of one request root —
// the per-call amortization that makes high-volume single-tuple clients
// cheap to serve. Tuples are independent: one malformed or timed-out
// tuple gets its own error envelope while the rest of the batch
// completes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"time"

	renuver "repro"
	"repro/internal/obs"
)

// jsonContentType reports whether the request declares a JSON body —
// the discriminator routing /impute into batch mode.
func jsonContentType(header string) bool {
	mt, _, err := mime.ParseMediaType(header)
	if err != nil {
		return false
	}
	return mt == "application/json" || mt == "text/json"
}

// batchRequest is the accepted body shape: either a bare JSON array of
// tuple objects, or an envelope {"tuples": [...]}.
type batchRequest struct {
	Tuples []map[string]json.RawMessage `json:"tuples"`
}

// batchTupleResult is one tuple's outcome. Exactly one of Tuple or
// Error is set: a success carries the (possibly imputed) tuple keyed by
// attribute name plus the imputed attribute names; a failure carries
// the same error envelope shape the CSV path uses.
type batchTupleResult struct {
	Tuple   map[string]any `json:"tuple,omitempty"`
	Imputed []string       `json:"imputed,omitempty"`
	Missing int            `json:"missing,omitempty"`
	Error   string         `json:"error,omitempty"`
	Code    string         `json:"code,omitempty"`
}

// batchResponse is the whole batch's outcome plus totals.
type batchResponse struct {
	Results   []batchTupleResult `json:"results"`
	Tuples    int                `json:"tuples"`
	Succeeded int                `json:"succeeded"`
	Failed    int                `json:"failed"`
	Imputed   int                `json:"imputed"`
}

// batchTupleHook, when non-nil, runs before tuple i of every batch — a
// test seam for deterministic mid-batch cancellation.
var batchTupleHook func(i int)

// decodeJSONValue converts one JSON value into the typed cell value of
// schema attribute a, strictly typed: strings for string attributes,
// integral numbers for ints, numbers for floats, booleans for bools;
// JSON null is the missing value. Shared by the batch-impute tuple
// decoder and the /delta update decoder, so both speak one schema
// dialect.
func decodeJSONValue(schema *renuver.Schema, a int, raw json.RawMessage) (renuver.Value, error) {
	if string(raw) == "null" {
		return renuver.Null, nil
	}
	name := schema.Attr(a).Name
	kind := schema.Attr(a).Kind
	switch kind {
	case renuver.KindString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return renuver.Null, fmt.Errorf("attribute %q expects a string", name)
		}
		return renuver.NewString(s), nil
	case renuver.KindInt:
		var n json.Number
		if err := json.Unmarshal(raw, &n); err != nil {
			return renuver.Null, fmt.Errorf("attribute %q expects an integer", name)
		}
		i, err := n.Int64()
		if err != nil {
			return renuver.Null, fmt.Errorf("attribute %q expects an integer, got %s", name, n)
		}
		return renuver.NewInt(i), nil
	case renuver.KindFloat:
		var n json.Number
		if err := json.Unmarshal(raw, &n); err != nil {
			return renuver.Null, fmt.Errorf("attribute %q expects a number", name)
		}
		f, err := n.Float64()
		if err != nil {
			return renuver.Null, fmt.Errorf("attribute %q expects a number, got %s", name, n)
		}
		return renuver.NewFloat(f), nil
	case renuver.KindBool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return renuver.Null, fmt.Errorf("attribute %q expects a boolean", name)
		}
		return renuver.NewBool(b), nil
	default:
		return renuver.Null, fmt.Errorf("attribute %q has unsupported kind %v", name, kind)
	}
}

// decodeBatchTuple converts one attribute-name-keyed JSON object into a
// positional tuple under the schema (see decodeJSONValue for the value
// rules); an absent attribute is the missing value; unknown attribute
// names are an error.
func decodeBatchTuple(schema *renuver.Schema, obj map[string]json.RawMessage) (renuver.Tuple, error) {
	t := make(renuver.Tuple, schema.Len())
	for name, raw := range obj {
		a, ok := schema.Index(name)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q", name)
		}
		v, err := decodeJSONValue(schema, a, raw)
		if err != nil {
			return nil, err
		}
		t[a] = v
	}
	return t, nil
}

// renderBatchTuple converts an imputed positional tuple back to the
// attribute-name-keyed JSON shape of the request.
func renderBatchTuple(schema *renuver.Schema, t renuver.Tuple) map[string]any {
	out := make(map[string]any, schema.Len())
	for a := 0; a < schema.Len(); a++ {
		name := schema.Attr(a).Name
		v := t[a]
		switch v.Kind() {
		case renuver.KindNull:
			out[name] = nil
		case renuver.KindString:
			out[name] = v.Str()
		case renuver.KindInt:
			out[name] = v.Int()
		case renuver.KindFloat:
			out[name] = v.Float()
		case renuver.KindBool:
			out[name] = v.Bool()
		}
	}
	return out
}

// handleBatchImpute serves the JSON batch form of /impute. Admission is
// acquired once for the batch; each tuple then runs as its own one-row
// imputation under a per-tuple child span of the request root. A tuple
// that fails to decode or times out gets a per-tuple error envelope; the
// response is 200 whenever the batch itself was admitted and parsed,
// with per-tuple status inside.
func handleBatchImpute(w http.ResponseWriter, r *http.Request, sess *renuver.Session,
	g *gate, metrics *renuver.MetricsRecorder, limits serveLimits, logger *slog.Logger) {

	baseView := sess.BaseView()
	if baseView == nil {
		writeError(w, http.StatusUnprocessableEntity, "unprocessable",
			"batch imputation needs a session with a base instance")
		return
	}
	schema := baseView.Relation().Schema()

	// One admission for the whole batch: N tuples cost one queue slot,
	// not N contended acquisitions.
	release, err := g.acquire(r.Context())
	if err != nil {
		if errors.Is(err, errQueueFull) {
			metrics.Add(obs.CtrServeRejected, 1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "queue_full",
				"admission queue full; retry later")
			return
		}
		metrics.Add(obs.CtrServeTimeouts, 1)
		writeError(w, http.StatusServiceUnavailable, "canceled",
			"request abandoned while queued")
		return
	}
	defer release()
	metrics.Add(obs.CtrServeAccepted, 1)
	lg := reqLogger(r.Context(), logger)

	ctx := r.Context()
	if limits.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limits.requestTimeout)
		defer cancel()
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limits.bodyLimit()))
	if err != nil {
		writeBodyError(w, err, "reading body: ")
		return
	}
	var tuples []map[string]json.RawMessage
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(body, &tuples); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad JSON batch: "+err.Error())
			return
		}
	} else {
		var envelope batchRequest
		if err := json.Unmarshal(body, &envelope); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad JSON batch: "+err.Error())
			return
		}
		if envelope.Tuples == nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				`bad JSON batch: expected a tuple array or {"tuples": [...]}`)
			return
		}
		tuples = envelope.Tuples
	}
	if len(tuples) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "empty batch")
		return
	}

	// The whole deadline spent queueing or parsing: reject the batch as
	// one timeout rather than stamping N identical envelopes.
	if ctx.Err() != nil {
		metrics.Add(obs.CtrServeTimeouts, 1)
		writeError(w, http.StatusGatewayTimeout, "timeout",
			"request deadline exceeded before the batch started")
		return
	}

	root := renuver.SpanFromContext(ctx)
	resp := batchResponse{Results: make([]batchTupleResult, len(tuples)), Tuples: len(tuples)}
	start := time.Now()
	expired := false
	for i, obj := range tuples {
		if batchTupleHook != nil {
			batchTupleHook(i)
		}
		if expired || ctx.Err() != nil {
			// Mid-batch expiry: the remaining tuples each get a timeout
			// envelope; completed results are kept and returned.
			expired = true
			resp.Results[i] = batchTupleResult{
				Error: "request deadline exceeded before this tuple ran", Code: "timeout"}
			resp.Failed++
			continue
		}
		t, err := decodeBatchTuple(schema, obj)
		if err != nil {
			resp.Results[i] = batchTupleResult{Error: err.Error(), Code: "bad_tuple"}
			resp.Failed++
			continue
		}
		rel := renuver.NewRelation(schema)
		if err := rel.Append(t); err != nil {
			resp.Results[i] = batchTupleResult{Error: err.Error(), Code: "bad_tuple"}
			resp.Failed++
			continue
		}

		tctx := ctx
		sp := root.Child("batch_tuple")
		if sp.Enabled() {
			sp.Int("index", int64(i))
			tctx = renuver.ContextWithSpan(ctx, sp)
		}
		res, err := sess.Impute(tctx, rel)
		if sp.Enabled() {
			sp.End()
		}
		if err != nil {
			if errors.Is(err, renuver.ErrCanceled) {
				expired = true
				resp.Results[i] = batchTupleResult{
					Error: "request deadline exceeded running this tuple", Code: "timeout"}
				resp.Failed++
				continue
			}
			resp.Results[i] = batchTupleResult{Error: err.Error(), Code: "unprocessable"}
			resp.Failed++
			continue
		}
		imputed := make([]string, 0, len(res.Imputations))
		for _, imp := range res.Imputations {
			imputed = append(imputed, schema.Attr(imp.Cell.Attr).Name)
		}
		resp.Results[i] = batchTupleResult{
			Tuple:   renderBatchTuple(schema, res.Relation.Row(0)),
			Imputed: imputed,
			Missing: res.Stats.MissingCells,
		}
		resp.Succeeded++
		resp.Imputed += res.Stats.Imputed
	}
	if expired {
		metrics.Add(obs.CtrServeTimeouts, 1)
	}
	if lg != nil {
		lg.Info("batch imputed",
			"tuples", resp.Tuples, "succeeded", resp.Succeeded, "failed", resp.Failed,
			"imputed", resp.Imputed,
			"elapsed", time.Since(start).Round(time.Microsecond).String())
	}

	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(resp)
}
