package obs

// This file is the request-scoped telemetry layer: where metrics.go
// aggregates *how much* work the process did and trace.go records *which
// decision* one cell took, a span tree records *where the time of one
// request went* — the root HTTP request, the Impute run under it, every
// imputed cell, and the candidate_search / ranking / verify phases
// inside each cell, each with a start/end window and typed attributes
// (donor-pool size, candidate count, imputed or not).
//
// Design rules, shared with the rest of the package:
//
//   - Zero external dependencies.
//   - The disabled path is free: a context without a trace yields the
//     zero Span, and every Span method starts with a nil-receiver check
//     before touching the clock — no allocation, no atomic RMW, one
//     predictable branch. TestSpanDisabledZeroAlloc pins this with
//     testing.AllocsPerRun.
//   - Bounded memory: a Trace caps its span count (excess children are
//     counted, not stored) and completed traces live in a fixed-size
//     ring that evicts oldest-first.
//   - Interoperable identity: ids follow the W3C Trace Context format,
//     so a `traceparent` header from an upstream proxy threads through
//     to the exported trees and back out in the response headers.

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// TraceID identifies one request across process boundaries (W3C
// trace-id: 16 bytes, rendered as 32 lowercase hex digits).
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID identifies one span within a trace (W3C parent-id: 8 bytes,
// 16 lowercase hex digits).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the id as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// SpanContext is the propagated identity of a span: the trace it
// belongs to and its own id — what a `traceparent` header carries.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the W3C sampled flag (trace-flags bit 0).
	Sampled bool
}

// IsValid reports whether both ids are non-zero, per the W3C rules.
func (sc SpanContext) IsValid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value
// (version 00).
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex>", lower-case hex only, as the spec's
// HEXDIGLC grammar requires). It returns ok=false on malformed input,
// unknown lengths, or the all-zero ids the spec forbids; callers then
// mint a fresh trace instead of propagating garbage. Sampled is bit 0
// of the trace-flags byte; the other flag bits parse and are dropped.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	// version "00" plus three dash-separated fields: 2+1+32+1+16+1+2.
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	if s[0] != '0' || s[1] != '0' { // only version 00 is understood
		return sc, false
	}
	var flags [1]byte
	if !decodeLowerHex(sc.TraceID[:], s[3:35]) || !decodeLowerHex(sc.SpanID[:], s[36:52]) ||
		!decodeLowerHex(flags[:], s[53:55]) {
		return sc, false
	}
	sc.Sampled = flags[0]&1 == 1
	if !sc.IsValid() {
		return sc, false
	}
	return sc, true
}

// decodeLowerHex decodes src, which must be exactly 2*len(dst)
// lower-case hex digits, into dst.
func decodeLowerHex(dst []byte, src string) bool {
	for _, b := range []byte(src) {
		if !isHexByte(b) {
			return false
		}
	}
	_, err := hex.Decode(dst, []byte(src))
	return err == nil
}

func isHexByte(b byte) bool {
	return (b >= '0' && b <= '9') || (b >= 'a' && b <= 'f')
}

// attrKind discriminates the typed attribute payloads.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrStr
)

// Attr is one typed key/value attribute on a span. The three payload
// fields avoid interface boxing on the enabled path.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

// Value returns the attribute's payload as an any (for JSON export and
// tests).
func (a Attr) Value() any {
	switch a.kind {
	case attrFloat:
		return a.f
	case attrStr:
		return a.s
	default:
		return a.i
	}
}

// spanData is one span's record inside its trace's arena.
type spanData struct {
	name   string
	parent int32 // arena index of the parent, -1 for the root
	start  int64 // UnixNano
	end    int64 // UnixNano, 0 while open
	attrs  []Attr
}

// MaxSpansPerTrace bounds one request's span tree: a pathological
// request (thousands of cells, each with per-cluster children) cannot
// blow up memory. Children beyond the cap are counted, not stored.
const MaxSpansPerTrace = 4096

// Trace is one request's span collector: a mutex-guarded arena of
// spans sharing a TraceID. It is safe for concurrent use — parallel
// phases may open children from their own goroutines — and is pushed
// into its SpanRing exactly once, on Finish.
type Trace struct {
	mu      sync.Mutex
	traceID TraceID
	remote  SpanID // upstream parent span id, zero when the trace is local
	seed    uint64 // per-trace counter state for span-id derivation
	spans   []spanData
	dropped int
	ring    *SpanRing
	done    bool
}

// NewTrace opens a trace whose root span has the given name. A valid
// parent context links the root under the upstream span and reuses its
// TraceID; otherwise a fresh TraceID is minted.
func NewTrace(name string, parent SpanContext) *Trace {
	t := &Trace{seed: rand.Uint64() | 1}
	if parent.IsValid() {
		t.traceID = parent.TraceID
		t.remote = parent.SpanID
	} else {
		var id TraceID
		for id.IsZero() {
			hi, lo := rand.Uint64(), rand.Uint64()
			for i := 0; i < 8; i++ {
				id[i] = byte(hi >> (8 * i))
				id[8+i] = byte(lo >> (8 * i))
			}
		}
		t.traceID = id
	}
	t.spans = append(t.spans, spanData{name: name, parent: -1, start: time.Now().UnixNano()})
	return t
}

// spanIDOf derives span idx's id from the per-trace seed (splitmix64),
// so ids are unique within the trace without per-span entropy.
func (t *Trace) spanIDOf(idx int32) SpanID {
	z := t.seed + (uint64(idx)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	var id SpanID
	for i := 0; i < 8; i++ {
		id[i] = byte(z >> (8 * i))
	}
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

// TraceID returns the trace's id.
func (t *Trace) TraceID() TraceID { return t.traceID }

// Context returns the propagated identity of the root span — what the
// response's traceparent header should carry.
func (t *Trace) Context() SpanContext {
	return SpanContext{TraceID: t.traceID, SpanID: t.spanIDOf(0), Sampled: true}
}

// Root returns the root span.
func (t *Trace) Root() Span { return Span{t: t, idx: 0} }

// Dropped returns how many spans the per-trace cap elided.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of retained spans.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Finish closes the root span (clamping any still-open children to the
// root's end) and pushes the completed trace into its ring. It is
// idempotent; only the first call publishes.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	now := time.Now().UnixNano()
	for i := range t.spans {
		if t.spans[i].end == 0 {
			t.spans[i].end = now
		}
	}
	ring := t.ring
	t.mu.Unlock()
	if ring != nil {
		ring.push(t)
	}
}

// Span is a lightweight handle into a Trace's arena. The zero Span is
// the disabled span: every method is an inert nil-check, so the hot
// paths thread Span values unconditionally. Copying a Span is cheap
// and safe.
type Span struct {
	t   *Trace
	idx int32
}

// Enabled reports whether the span records anything. Callers use it to
// skip attribute preparation (e.g. formatting a name) when disabled.
func (s Span) Enabled() bool { return s.t != nil }

// Trace returns the owning trace, nil for the zero Span.
func (s Span) Trace() *Trace { return s.t }

// Child opens a sub-span. On the zero Span, or past the per-trace span
// cap, it returns the zero Span (the cap also counts the drop, so the
// exported tree discloses its own truncation).
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	now := time.Now().UnixNano()
	t := s.t
	t.mu.Lock()
	if len(t.spans) >= MaxSpansPerTrace {
		t.dropped++
		t.mu.Unlock()
		return Span{}
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, spanData{name: name, parent: s.idx, start: now})
	t.mu.Unlock()
	return Span{t: t, idx: idx}
}

// End closes the span. Closing an already-closed span is a no-op, so
// deferred Ends compose with early explicit ones.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := time.Now().UnixNano()
	s.t.mu.Lock()
	if s.t.spans[s.idx].end == 0 {
		s.t.spans[s.idx].end = now
	}
	s.t.mu.Unlock()
}

func (s Span) addAttr(a Attr) {
	s.t.mu.Lock()
	s.t.spans[s.idx].attrs = append(s.t.spans[s.idx].attrs, a)
	s.t.mu.Unlock()
}

// Int attaches an integer attribute. No-op on the zero Span.
func (s Span) Int(key string, v int64) {
	if s.t == nil {
		return
	}
	s.addAttr(Attr{Key: key, kind: attrInt, i: v})
}

// Float attaches a float attribute. No-op on the zero Span.
func (s Span) Float(key string, v float64) {
	if s.t == nil {
		return
	}
	s.addAttr(Attr{Key: key, kind: attrFloat, f: v})
}

// Str attaches a string attribute. No-op on the zero Span.
func (s Span) Str(key, v string) {
	if s.t == nil {
		return
	}
	s.addAttr(Attr{Key: key, kind: attrStr, s: v})
}

// SpanContext returns the span's propagated identity, ok=false for the
// zero Span.
func (s Span) SpanContext() (SpanContext, bool) {
	if s.t == nil {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: s.t.traceID, SpanID: s.t.spanIDOf(s.idx), Sampled: true}, true
}

// ---- context plumbing ---------------------------------------------------

type spanCtxKey struct{}

// ContextWithSpan installs a span as the context's current span;
// children opened downstream (Session.Impute, discovery) nest under it.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the context's current span, or the zero
// (disabled) Span when none was installed. The lookup does not
// allocate, so hot paths may call it per request without cost when
// telemetry is off.
func SpanFromContext(ctx context.Context) Span {
	s, _ := ctx.Value(spanCtxKey{}).(Span)
	return s
}

// StartRequest opens a request trace named `name` (optionally linked
// under an upstream traceparent), registers it with the ring, and
// returns a derived context carrying the root span. The caller must
// call Trace.Finish when the request completes; the finished tree then
// lands in the ring. A nil ring is valid — the tree is built and
// discarded — so the call sites need no conditionals.
func StartRequest(ctx context.Context, ring *SpanRing, name string, parent SpanContext) (context.Context, *Trace) {
	t := NewTrace(name, parent)
	t.ring = ring
	return ContextWithSpan(ctx, t.Root()), t
}

// ---- export -------------------------------------------------------------

// SpanNode is one span in the exported tree form.
type SpanNode struct {
	Name       string         `json:"name"`
	SpanID     string         `json:"span_id"`
	TraceID    string         `json:"trace_id,omitempty"` // root only
	ParentID   string         `json:"parent_id,omitempty"`
	StartNano  int64          `json:"start_unix_nano"`
	DurationUS float64        `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanNode    `json:"children,omitempty"`
	// Dropped, on the root, is how many spans the per-trace cap elided.
	Dropped int `json:"dropped_spans,omitempty"`
}

// Tree renders the trace as a nested tree rooted at the request span.
// Children appear in creation order.
func (t *Trace) Tree() *SpanNode {
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make([]*SpanNode, len(t.spans))
	for i, sd := range t.spans {
		n := &SpanNode{
			Name:       sd.name,
			SpanID:     t.spanIDOf(int32(i)).String(),
			StartNano:  sd.start,
			DurationUS: float64(sd.end-sd.start) / 1e3,
		}
		if len(sd.attrs) > 0 {
			n.Attrs = make(map[string]any, len(sd.attrs))
			for _, a := range sd.attrs {
				n.Attrs[a.Key] = a.Value()
			}
		}
		nodes[i] = n
		if sd.parent < 0 {
			n.TraceID = t.traceID.String()
			if !t.remote.IsZero() {
				n.ParentID = t.remote.String()
			}
			n.Dropped = t.dropped
		} else {
			parent := nodes[sd.parent]
			n.ParentID = parent.SpanID
			parent.Children = append(parent.Children, n)
		}
	}
	return nodes[0]
}

// CheckWellFormed verifies the structural invariants the race harness
// asserts: the first span is the only root, every other span's parent
// precedes it, and every child's [start, end] window lies within its
// parent's. It returns the first violation found, nil when sound.
func (t *Trace) CheckWellFormed() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return fmt.Errorf("obs: trace %s has no spans", t.traceID)
	}
	for i, sd := range t.spans {
		if i == 0 {
			if sd.parent != -1 {
				return fmt.Errorf("obs: span 0 %q is not the root", sd.name)
			}
			continue
		}
		if sd.parent < 0 || int(sd.parent) >= i {
			return fmt.Errorf("obs: span %d %q has orphan parent %d", i, sd.name, sd.parent)
		}
		p := t.spans[sd.parent]
		if sd.end != 0 && sd.end < sd.start {
			return fmt.Errorf("obs: span %d %q ends before it starts", i, sd.name)
		}
		if sd.start < p.start {
			return fmt.Errorf("obs: span %d %q starts before its parent %q", i, sd.name, p.name)
		}
		if sd.end != 0 && p.end != 0 && sd.end > p.end {
			return fmt.Errorf("obs: span %d %q ends after its parent %q", i, sd.name, p.name)
		}
	}
	return nil
}

// spanRecord is the flat JSONL form: one span per line with explicit
// parent links, importable into any trace viewer.
type spanRecord struct {
	TraceID   string         `json:"trace_id"`
	SpanID    string         `json:"span_id"`
	ParentID  string         `json:"parent_id,omitempty"`
	Name      string         `json:"name"`
	StartNano int64          `json:"start_unix_nano"`
	EndNano   int64          `json:"end_unix_nano"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

// WriteJSONL exports the trace's spans, arena order, one per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	t.mu.Lock()
	records := make([]spanRecord, len(t.spans))
	for i, sd := range t.spans {
		r := spanRecord{
			TraceID:   t.traceID.String(),
			SpanID:    t.spanIDOf(int32(i)).String(),
			Name:      sd.name,
			StartNano: sd.start,
			EndNano:   sd.end,
		}
		if sd.parent >= 0 {
			r.ParentID = t.spanIDOf(sd.parent).String()
		} else if !t.remote.IsZero() {
			r.ParentID = t.remote.String()
		}
		if len(sd.attrs) > 0 {
			r.Attrs = make(map[string]any, len(sd.attrs))
			for _, a := range sd.attrs {
				r.Attrs[a.Key] = a.Value()
			}
		}
		records[i] = r
	}
	t.mu.Unlock()
	for _, r := range records {
		doc, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(doc, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ---- the ring -----------------------------------------------------------

// DefaultSpanTraces is the SpanRing capacity when NewSpanRing gets <= 0.
const DefaultSpanTraces = 64

// SpanRing retains the last N completed request traces. When full, the
// oldest trace is evicted, so a long-lived server always holds the most
// recent requests. All methods are safe for concurrent use.
type SpanRing struct {
	mu      sync.Mutex
	traces  []*Trace
	start   int
	count   int
	evicted uint64
}

// NewSpanRing returns a ring retaining up to capacity traces (<= 0
// means DefaultSpanTraces).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanTraces
	}
	return &SpanRing{traces: make([]*Trace, capacity)}
}

func (r *SpanRing) push(t *Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count < len(r.traces) {
		r.traces[(r.start+r.count)%len(r.traces)] = t
		r.count++
		return
	}
	r.traces[r.start] = t
	r.start = (r.start + 1) % len(r.traces)
	r.evicted++
}

// Len returns the number of retained traces.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Evicted returns how many traces the ring has dropped.
func (r *SpanRing) Evicted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// Last returns the most recently finished trace, nil when empty.
func (r *SpanRing) Last() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return nil
	}
	return r.traces[(r.start+r.count-1)%len(r.traces)]
}

// Traces returns the retained traces, oldest first.
func (r *SpanRing) Traces() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.traces[(r.start+i)%len(r.traces)])
	}
	return out
}

// WriteJSONL exports every retained trace, oldest first, one span per
// line.
func (r *SpanRing) WriteJSONL(w io.Writer) error {
	for _, t := range r.Traces() {
		if err := t.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}

// SpansHandler serves the ring's retained span trees as a JSON array
// (oldest first) — the `/debug/spans` endpoint of `renuver serve`. The
// `n` query parameter limits the response to the newest n trees. A nil
// ring yields 404s so the endpoint can be mounted unconditionally.
func SpansHandler(r *SpanRing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "span telemetry disabled; restart with -span-ring > 0", http.StatusNotFound)
			return
		}
		traces := r.Traces()
		if nStr := req.URL.Query().Get("n"); nStr != "" {
			n, err := strconv.Atoi(nStr)
			if err != nil || n < 0 {
				http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			if n < len(traces) {
				traces = traces[len(traces)-n:]
			}
		}
		trees := make([]*SpanNode, len(traces))
		for i, t := range traces {
			trees[i] = t.Tree()
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(trees)
	})
}
