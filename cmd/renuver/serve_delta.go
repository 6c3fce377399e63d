package main

// POST /v1/delta: the live-data mutation endpoint of `renuver serve`.
// One JSON body carries a whole renuver.Delta — inserts, cell updates,
// row deletes — applied atomically through Session.ApplyDelta: the
// server publishes the mutated base as a new epoch while concurrent
// /impute requests keep serving against whichever epoch they pinned at
// admission. The endpoint works identically for sessions compiled from
// -in and sessions booted from a -artifact (the decoded interning
// tables rebuild their id maps, so artifact sessions evolve like any
// other); re-encoding after deltas snapshots the current epoch.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	renuver "repro"
	"repro/internal/obs"
)

// deltaUpdate is the JSON form of one cell update. Attr accepts either
// the attribute name ("City") or its positional index.
type deltaUpdate struct {
	Row   int             `json:"row"`
	Attr  json.RawMessage `json:"attr"`
	Value json.RawMessage `json:"value"`
}

// deltaRequest is the /delta body: the JSON form of renuver.Delta, with
// inserts in the batch-impute tuple dialect (attribute-name-keyed
// objects) and updates carrying one value each.
type deltaRequest struct {
	Inserts []map[string]json.RawMessage `json:"inserts"`
	Updates []deltaUpdate                `json:"updates"`
	Deletes []int                        `json:"deletes"`
}

// resolveDeltaAttr maps a JSON attribute reference — name or index — to the
// schema position.
func resolveDeltaAttr(schema *renuver.Schema, raw json.RawMessage) (int, error) {
	if len(raw) == 0 {
		return 0, fmt.Errorf("update is missing \"attr\"")
	}
	if raw[0] == '"' {
		var name string
		if err := json.Unmarshal(raw, &name); err != nil {
			return 0, fmt.Errorf("bad attribute reference %s", raw)
		}
		a, ok := schema.Index(name)
		if !ok {
			return 0, fmt.Errorf("unknown attribute %q", name)
		}
		return a, nil
	}
	var a int
	if err := json.Unmarshal(raw, &a); err != nil {
		return 0, fmt.Errorf("bad attribute reference %s", raw)
	}
	if a < 0 || a >= schema.Len() {
		return 0, fmt.Errorf("attribute index %d outside arity %d", a, schema.Len())
	}
	return a, nil
}

// decodeDelta converts the JSON body into the typed mutation batch —
// the same renuver.Delta the Go API and the `renuver delta` CLI verb
// consume.
func decodeDelta(schema *renuver.Schema, body []byte) (renuver.Delta, error) {
	var req deltaRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return renuver.Delta{}, fmt.Errorf("bad JSON delta: %w", err)
	}
	var d renuver.Delta
	for i, obj := range req.Inserts {
		t, err := decodeBatchTuple(schema, obj)
		if err != nil {
			return renuver.Delta{}, fmt.Errorf("insert %d: %w", i, err)
		}
		d.Inserts = append(d.Inserts, t)
	}
	for i, u := range req.Updates {
		a, err := resolveDeltaAttr(schema, u.Attr)
		if err != nil {
			return renuver.Delta{}, fmt.Errorf("update %d: %w", i, err)
		}
		if len(u.Value) == 0 {
			return renuver.Delta{}, fmt.Errorf("update %d: missing \"value\"", i)
		}
		v, err := decodeJSONValue(schema, a, u.Value)
		if err != nil {
			return renuver.Delta{}, fmt.Errorf("update %d: %w", i, err)
		}
		d.Updates = append(d.Updates, renuver.CellUpdate{Row: u.Row, Attr: a, Value: v})
	}
	d.Deletes = req.Deletes
	return d, nil
}

// handleDelta serves POST /delta. A delta is admitted through the same
// gate as imputation work (revalidating Σ over the changed rows is real
// work), applied atomically, and answered with the DeltaResult JSON:
// the new epoch, the applied mutation counts, and what the delta cost
// (Σ repairs and interner compactions). Error envelopes
// follow the batch-impute conventions: 405 on non-POST, 415 on non-JSON
// bodies, 400 on a body that does not decode against the schema, 422
// when the mutation batch is rejected whole (bad row handles, arity or
// kind mismatches), 429/503 from admission, 504 on deadline expiry —
// the old epoch keeps serving in every error case.
func handleDelta(w http.ResponseWriter, r *http.Request, sess *renuver.Session,
	g *gate, metrics *renuver.MetricsRecorder, limits serveLimits, logger *slog.Logger) {

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"POST a JSON delta to mutate the session base")
		return
	}
	if ct := r.Header.Get("Content-Type"); !jsonContentType(ct) {
		writeError(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
			fmt.Sprintf("unsupported Content-Type %q: POST a JSON delta (application/json)", ct))
		return
	}
	baseView := sess.BaseView()
	if baseView == nil {
		writeError(w, http.StatusUnprocessableEntity, "unprocessable",
			"deltas need a session with a base instance")
		return
	}
	schema := baseView.Relation().Schema()

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
	d, err := decodeDelta(schema, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	start := time.Now()
	res, err := sess.ApplyDelta(ctx, d)
	if err != nil {
		if errors.Is(err, renuver.ErrCanceled) {
			metrics.Add(obs.CtrServeTimeouts, 1)
			lg.Warn("delta deadline exceeded", "elapsed", time.Since(start).String())
			writeError(w, http.StatusGatewayTimeout, "timeout",
				"request deadline exceeded; the delta was not applied")
			return
		}
		lg.Error("delta rejected", "error", err)
		writeError(w, http.StatusUnprocessableEntity, "unprocessable", err.Error())
		return
	}
	lg.Info("delta applied",
		"epoch", res.Epoch, "rows", res.Rows,
		"inserted", res.Inserted, "updated", res.Updated, "deleted", res.Deleted,
		"rules", res.Rules, "sigma_dropped", res.SigmaDropped, "sigma_tightened", res.SigmaTightened,
		"elapsed", time.Since(start).Round(time.Microsecond).String())
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(res)
}
