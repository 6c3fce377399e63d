// Package renuver is the public API of this repository: a Go
// implementation of RENUVER (Breve, Caruccio, Deufemia, Polese — "RENUVER:
// A Missing Value Imputation Algorithm based on Relaxed Functional
// Dependencies", EDBT 2022) together with every substrate the paper's
// evaluation depends on — a relational engine with typed nulls, RFDc
// discovery, denial constraints, three comparison baselines (grey-based
// kNN, Derand, a Holoclean-style probabilistic repairer), missing-value
// injection, and the paper's rule-based result validator.
//
// Quick start:
//
//	rel, _ := renuver.LoadCSVFile("restaurant.csv")
//	sigma, _ := renuver.DiscoverRFDs(rel, renuver.DiscoveryOptions{MaxThreshold: 15})
//	res, _ := renuver.Impute(rel, sigma)
//	fmt.Println(res.Stats.Imputed, "cells filled")
//
// The exported names are thin aliases over the internal packages, so the
// full documented behaviour lives with the implementations.
package renuver

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/dc"
	"repro/internal/discovery"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/impute"
	"repro/internal/impute/derand"
	"repro/internal/impute/holoclean"
	"repro/internal/impute/knn"
	"repro/internal/impute/meanmode"
	"repro/internal/impute/regression"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/rfd"
)

// Relational substrate.
type (
	// Relation is a mutable relation instance over a fixed schema.
	Relation = dataset.Relation
	// Schema is an ordered attribute list.
	Schema = dataset.Schema
	// Attribute is one schema column.
	Attribute = dataset.Attribute
	// Tuple is one positional row.
	Tuple = dataset.Tuple
	// Value is one typed cell; the zero Value is the missing value.
	Value = dataset.Value
	// Cell addresses a (row, attribute) position.
	Cell = dataset.Cell
	// Kind enumerates value domains.
	Kind = dataset.Kind
)

// Value constructors and kinds, re-exported for building relations
// programmatically.
var (
	NewString = dataset.NewString
	NewInt    = dataset.NewInt
	NewFloat  = dataset.NewFloat
	NewBool   = dataset.NewBool
	Null      = dataset.Null
)

// Value kind constants.
const (
	KindNull   = dataset.KindNull
	KindString = dataset.KindString
	KindInt    = dataset.KindInt
	KindFloat  = dataset.KindFloat
	KindBool   = dataset.KindBool
)

// NewSchema builds a schema from attributes.
func NewSchema(attrs ...Attribute) *Schema { return dataset.NewSchema(attrs...) }

// NewRelation returns an empty relation over the schema.
func NewRelation(schema *Schema) *Relation { return dataset.NewRelation(schema) }

// LoadCSV reads a relation from CSV with per-column type inference.
func LoadCSV(r io.Reader) (*Relation, error) { return dataset.ReadCSV(r) }

// LoadCSVFile is LoadCSV over a file path.
func LoadCSVFile(path string) (*Relation, error) { return dataset.ReadCSVFile(path) }

// LoadCSVString is LoadCSV over an in-memory document.
func LoadCSVString(doc string) (*Relation, error) { return dataset.ReadCSVString(doc) }

// SaveCSV writes a relation as CSV.
func SaveCSV(w io.Writer, rel *Relation) error { return dataset.WriteCSV(w, rel) }

// SaveCSVFile is SaveCSV to a file path.
func SaveCSVFile(path string, rel *Relation) error { return dataset.WriteCSVFile(path, rel) }

// LoadJSONLines reads a relation from newline-delimited JSON objects
// (union schema, alphabetical attribute order, JSON null = missing).
func LoadJSONLines(r io.Reader) (*Relation, error) { return dataset.ReadJSONLines(r) }

// LoadJSONLinesFile is LoadJSONLines over a file path.
func LoadJSONLinesFile(path string) (*Relation, error) { return dataset.ReadJSONLinesFile(path) }

// SaveJSONLines writes a relation as newline-delimited JSON objects.
func SaveJSONLines(w io.Writer, rel *Relation) error { return dataset.WriteJSONLines(w, rel) }

// SaveJSONLinesFile is SaveJSONLines to a file path.
func SaveJSONLinesFile(path string, rel *Relation) error {
	return dataset.WriteJSONLinesFile(path, rel)
}

// Relaxed functional dependencies.
type (
	// RFD is one RFDc: X_Φ1 → A_φ2 with distance thresholds.
	RFD = rfd.RFD
	// RFDSet is a set Σ of RFDcs.
	RFDSet = rfd.Set
	// Constraint is one per-attribute distance threshold.
	Constraint = rfd.Constraint
)

// ParseRFD reads an RFDc in textual form, e.g.
// "Name(<=4), City(<=9) -> Phone(<=0)".
func ParseRFD(s string, schema *Schema) (*RFD, error) { return rfd.Parse(s, schema) }

// LoadRFDs reads an RFDc set written by SaveRFDs (one per line).
func LoadRFDs(r io.Reader, schema *Schema) (RFDSet, error) { return rfd.ReadSet(r, schema) }

// LoadRFDsFile is LoadRFDs over a file path.
func LoadRFDsFile(path string, schema *Schema) (RFDSet, error) {
	return rfd.ReadSetFile(path, schema)
}

// SaveRFDs writes an RFDc set one dependency per line.
func SaveRFDs(w io.Writer, sigma RFDSet, schema *Schema) error {
	return rfd.WriteSet(w, sigma, schema)
}

// SaveRFDsFile is SaveRFDs to a file path.
func SaveRFDsFile(path string, sigma RFDSet, schema *Schema) error {
	return rfd.WriteSetFile(path, sigma, schema)
}

// DiscoveryOptions tunes RFDc discovery; see the discovery package for
// field semantics.
type DiscoveryOptions = discovery.Config

// CheckDiscoveryThreshold refuses a -threshold flag value above the
// largest DiscoveryOptions.MaxThreshold discovery accepts with an empty
// RHSGrid (65,535; the default grid holds every integer up to the
// limit), naming the flag: discovery's own error points at RHSGrid,
// which no command-line flag sets. Infinite and NaN limits pass here
// and fail discovery's finiteness check.
func CheckDiscoveryThreshold(th float64) error {
	if th > discovery.MaxDefaultGridThreshold && !math.IsInf(th, 1) {
		return fmt.Errorf("-threshold %v exceeds %d, the largest discovery threshold limit",
			th, discovery.MaxDefaultGridThreshold)
	}
	return nil
}

// DiscoverRFDs finds RFDcs holding on the instance under a maximum
// threshold limit (the paper's {3, 6, 9, 12, 15} sweep).
func DiscoverRFDs(rel *Relation, opts DiscoveryOptions) (RFDSet, error) {
	return discovery.Discover(rel, opts)
}

// DiscoverRFDsContext is DiscoverRFDs under a context. Discovery is
// abort-and-discard: a cancelled run returns a nil set and an error
// matching ErrCanceled, never a partial set.
func DiscoverRFDsContext(ctx context.Context, rel *Relation, opts DiscoveryOptions) (RFDSet, error) {
	return discovery.DiscoverContext(ctx, rel, opts)
}

// AdaptiveThresholdLimits computes per-attribute threshold caps from the
// attribute's pairwise-distance distribution (the Sec. 7 extension:
// thresholds with "an upper bound dependent from attribute domains and
// value distributions"). Feed the result to DiscoveryOptions.AttrLimits.
func AdaptiveThresholdLimits(rel *Relation, quantile float64, maxPairs int, seed int64) []float64 {
	return discovery.AdaptiveAttrLimits(rel, quantile, maxPairs, seed)
}

// The RENUVER imputer.
type (
	// Imputer runs RENUVER for one Σ and option set.
	Imputer = core.Imputer
	// Result is one imputation run's outcome.
	Result = core.Result
	// Imputation records one filled cell with provenance.
	Imputation = core.Imputation
	// Stats aggregates run counters.
	Stats = core.Stats
	// PhaseTimes is the per-phase wall-clock breakdown in Stats.Phases.
	PhaseTimes = core.PhaseTimes
	// Option tunes the imputer.
	Option = core.Option
	// Stream is the incremental-imputation session of the Sec. 7
	// extension: tuples are appended one at a time and imputed on
	// arrival (create one with Imputer.NewStream).
	Stream = core.Stream
)

// Imputer options, re-exported from internal/core.
var (
	WithClusterOrder       = core.WithClusterOrder
	WithVerifyMode         = core.WithVerifyMode
	WithoutClustering      = core.WithoutClustering
	WithoutRanking         = core.WithoutRanking
	WithoutKeyReevaluation = core.WithoutKeyReevaluation
	WithMaxCandidates      = core.WithMaxCandidates
	WithRecorder           = core.WithRecorder
	WithTracer             = core.WithTracer
)

// Observability. Every Impute* call fills Result.Stats unconditionally;
// a Recorder additionally aggregates counters, histograms, and phase
// timings across runs (see the README's "Observability" section).
type (
	// Recorder receives pipeline events; pass one with WithRecorder.
	Recorder = obs.Recorder
	// MetricsRecorder is the concrete lock-free Recorder: atomic
	// counters, fixed-bound histograms, and per-phase wall clock.
	MetricsRecorder = obs.Metrics
	// MetricsSnapshot is a point-in-time copy of a MetricsRecorder.
	MetricsSnapshot = obs.Snapshot
)

// HistogramSnapshot is one histogram's point-in-time state, including
// the derived p50/p95/p99 estimates.
type HistogramSnapshot = obs.HistSnapshot

// Request-scoped span telemetry. A serve-mode middleware (or any caller)
// opens a RequestTrace with StartRequest; spans started from the
// returned context nest under it, and finished traces land in a bounded
// SpanRing (`renuver serve` exposes it as `/debug/spans`). On a context
// without a trace every span operation is an inert nil check — the
// disabled path allocates nothing.
type (
	// Span is one timed operation inside a RequestTrace. The zero Span is
	// valid and disabled.
	Span = obs.Span
	// SpanContext is the W3C trace-context identity of a span
	// (traceparent form via its Traceparent method).
	SpanContext = obs.SpanContext
	// RequestTrace is one request's span tree.
	RequestTrace = obs.Trace
	// SpanRing retains the last N completed request traces.
	SpanRing = obs.SpanRing
	// SpanNode is one node of an exported span tree.
	SpanNode = obs.SpanNode
)

// ParseTraceparent parses a W3C traceparent header value, reporting
// ok=false on malformed input (callers then mint a fresh trace).
func ParseTraceparent(s string) (SpanContext, bool) { return obs.ParseTraceparent(s) }

// NewSpanRing returns a ring retaining the last `capacity` completed
// request traces (<=0 = default 64).
func NewSpanRing(capacity int) *SpanRing { return obs.NewSpanRing(capacity) }

// StartRequest opens a request trace (optionally linked under an
// upstream traceparent), registers it with the ring (nil = no
// retention), and returns a derived context whose spans nest under it.
// Call Finish on the returned trace when the request completes.
func StartRequest(ctx context.Context, ring *SpanRing, name string, parent SpanContext) (context.Context, *RequestTrace) {
	return obs.StartRequest(ctx, ring, name, parent)
}

// SpanFromContext returns the context's current span, or the zero
// (disabled) Span. The lookup never allocates.
func SpanFromContext(ctx context.Context) Span { return obs.SpanFromContext(ctx) }

// ContextWithSpan re-anchors the context on a span, nesting later
// spans under it.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	return obs.ContextWithSpan(ctx, s)
}

// Provenance tracing. A Tracer records per-cell decision traces —
// which donors were considered at what Eq. 2 distance, which RFDc vetoed
// a candidate (with the witness tuple), and why each cell resolved the
// way it did. Pass one with WithTracer; query traced cells on the Result
// with Result.Explain / Result.ExplainText.
type (
	// Tracer receives per-cell decision traces; pass one with WithTracer.
	Tracer = obs.Tracer
	// TraceEvent is one step of a cell's decision trace.
	TraceEvent = obs.TraceEvent
	// TraceEventKind enumerates trace event types.
	TraceEventKind = obs.EventKind
	// AttrDist is one per-attribute distance inside a DonorConsidered
	// event.
	AttrDist = obs.AttrDist
	// RingTracer is the concrete bounded Tracer: last-N cell traces with
	// deterministic every-Nth sampling, JSONL export, and an HTTP view.
	RingTracer = obs.RingTracer
)

// Trace event kinds.
const (
	EvCellStarted       = obs.EvCellStarted
	EvRuleSelected      = obs.EvRuleSelected
	EvDonorConsidered   = obs.EvDonorConsidered
	EvCandidateRejected = obs.EvCandidateRejected
	EvFaultlessVerdict  = obs.EvFaultlessVerdict
	EvCellResolved      = obs.EvCellResolved
	EvCellAbandoned     = obs.EvCellAbandoned
	EvRuleEmitted       = obs.EvRuleEmitted
	EvTraceTruncated    = obs.EvTraceTruncated
)

// NewRingTracer returns a bounded tracer retaining the last `capacity`
// cell traces (0 = default 256) and sampling every `sample`-th cell
// deterministically (<=1 = every cell).
func NewRingTracer(capacity, sample int) *RingTracer { return obs.NewRingTracer(capacity, sample) }

// NewMetricsRecorder returns an empty metrics sink, safe for concurrent
// runs.
func NewMetricsRecorder() *MetricsRecorder { return obs.NewMetrics() }

// GlobalMetrics returns the process-wide sink that the distance layer
// (Levenshtein calls and early-exit hits) records into when enabled via
// SetGlobalMetricsEnabled. `renuver serve` uses it as its one sink.
func GlobalMetrics() *MetricsRecorder { return obs.Global() }

// SetGlobalMetricsEnabled turns the process-wide sink on or off. Off by
// default: the disabled hot path costs a single atomic load.
func SetGlobalMetricsEnabled(on bool) { obs.SetGlobalEnabled(on) }

// Cluster traversal orders and verification modes.
const (
	AscendingThreshold  = core.AscendingThreshold
	DescendingThreshold = core.DescendingThreshold
	VerifyLHS           = core.VerifyLHS
	VerifyBothSides     = core.VerifyBothSides
	VerifyOff           = core.VerifyOff
)

// NewImputer returns a reusable RENUVER imputer over Σ.
func NewImputer(sigma RFDSet, opts ...Option) *Imputer { return core.New(sigma, opts...) }

// Session is the compile-once serve-many form of the imputer: construct
// it once over a base instance (compiling its columnar form and
// interning tables up front), then serve any number of concurrent
// Impute / Explain / Discover calls against the shared read-only
// artifacts. See internal/core.Session for the full
// contract.
type Session = core.Session

// NewSession builds a Session over Σ. A non-nil base becomes the donor
// pool of every request (its tuples are compiled once and shared); a nil
// base makes every request self-contained. Options are validated here,
// once, instead of on every request.
func NewSession(base *Relation, sigma RFDSet, opts ...Option) (*Session, error) {
	return core.NewSession(base, sigma, opts...)
}

// Live-data sessions. A Session with a base is mutated exclusively
// through Session.ApplyDelta, which publishes each applied batch as a
// new immutable epoch: concurrent Impute / Explain calls pin one epoch
// for their whole duration and are never disturbed, and the result at
// every epoch is byte-identical to a from-scratch NewSession over the
// mutated relation.
//
// Deprecated pattern: mutating the Relation passed to NewSession after
// construction never worked (the base is cloned at compile time) —
// sessions that need live data must go through ApplyDelta.
type (
	// Delta is one atomic batch of base mutations: inserts, cell
	// updates, and row deletes, addressed in the pre-delta epoch's row
	// numbering. The same type is the body of the server's POST
	// /v1/delta and the input of the `renuver delta` CLI verb.
	Delta = core.Delta
	// CellUpdate assigns one value to one existing cell.
	CellUpdate = core.CellUpdate
	// DeltaResult reports what one ApplyDelta published: the new epoch,
	// row count, applied mutation counts, and the Σ repairs and interner
	// compactions the delta caused.
	DeltaResult = core.DeltaResult
)

// ArtifactInfo summarizes a compiled-session artifact: format version,
// whole-file checksum, tuple count, arity, |Σ|, and encoded size. A
// session loaded from (or saved to) an artifact reports it via
// Session.Artifact.
type ArtifactInfo = core.ArtifactInfo

// ArtifactFormatVersion is the compiled-session artifact layout version
// this build writes and accepts.
const ArtifactFormatVersion = artifact.FormatVersion

// LoadSession reconstructs a serving Session from a compiled-session
// artifact file (the output of `renuver compile`), skipping RFD
// discovery and engine compilation entirely — the replica boot path
// behind `renuver serve -artifact`.
func LoadSession(path string, opts ...Option) (*Session, error) {
	return core.LoadSession(path, opts...)
}

// NewSessionFromArtifact is LoadSession over in-memory artifact bytes
// (e.g. an mmap'ed file); the data is not retained after decode.
func NewSessionFromArtifact(data []byte, opts ...Option) (*Session, error) {
	return core.NewSessionFromArtifact(data, opts...)
}

// ErrCanceled is the sentinel every context-aware entry point wraps when
// a run stops because its context expired. errors.Is matches both this
// sentinel and the context's own error (context.Canceled or
// context.DeadlineExceeded) on the returned error.
var ErrCanceled = engine.ErrCanceled

// Impute runs RENUVER once over the instance with the given Σ and
// options. The input is not mutated. It is ImputeContext with a
// background context.
func Impute(rel *Relation, sigma RFDSet, opts ...Option) (*Result, error) {
	return ImputeContext(context.Background(), rel, sigma, opts...)
}

// ImputeContext is Impute under a context: a one-shot ephemeral Session.
// A cancelled run returns the well-formed partial Result produced so far
// together with an error matching ErrCanceled and the context's error.
func ImputeContext(ctx context.Context, rel *Relation, sigma RFDSet, opts ...Option) (*Result, error) {
	return core.New(sigma, opts...).ImputeContext(ctx, rel)
}

// Method is the interface shared by RENUVER and the baselines: impute a
// clone under a context, never mutate the input.
type Method = impute.Method

// renuverMethod adapts the RENUVER imputer to the Method interface.
type renuverMethod struct{ im *core.Imputer }

func (r renuverMethod) Name() string { return "RENUVER" }
func (r renuverMethod) Impute(ctx context.Context, rel *Relation) (*Relation, error) {
	res, err := r.im.ImputeContext(ctx, rel)
	if res == nil {
		return nil, err
	}
	return res.Relation, err
}

// AsMethod wraps a RENUVER imputer as a Method for side-by-side
// comparison with the baselines.
func AsMethod(im *Imputer) Method { return renuverMethod{im: im} }

// Baselines.
type (
	// KNNOptions tunes the grey-based kNN baseline [14].
	KNNOptions = knn.Config
	// DerandOptions tunes the Derand baseline [23].
	DerandOptions = derand.Config
	// HolocleanOptions tunes the Holoclean-style baseline [20].
	HolocleanOptions = holoclean.Config
	// DC is one denial constraint.
	DC = dc.DC
	// DCDiscoveryOptions tunes denial-constraint discovery.
	DCDiscoveryOptions = dc.DiscoverConfig
)

// NewKNN returns the grey-based kNN imputation baseline.
func NewKNN(opts KNNOptions) (Method, error) { return knn.New(opts) }

// NewDerand returns the Derand baseline guided by a DD set (DDs share the
// RFDc structure).
func NewDerand(dds RFDSet, opts DerandOptions) (Method, error) { return derand.New(dds, opts) }

// NewDerandExact returns the bounded exact solver for the maximize-
// imputed-cells problem Derand approximates (the ILP reference of [23]).
// maxNodes bounds the branch-and-bound (0 = default budget).
func NewDerandExact(dds RFDSet, opts DerandOptions, maxNodes int) (Method, error) {
	im, err := derand.New(dds, opts)
	if err != nil {
		return nil, err
	}
	return derand.NewExact(im, maxNodes), nil
}

// NewHoloclean returns the Holoclean-style probabilistic baseline.
func NewHoloclean(opts HolocleanOptions) (Method, error) { return holoclean.New(opts) }

// RegressionOptions tunes the local linear-regression baseline [26].
type RegressionOptions = regression.Config

// NewMeanMode returns the statistical floor baseline: column mean for
// numerics, column mode otherwise.
func NewMeanMode() Method { return meanmode.New() }

// NewLocalRegression returns the per-tuple linear-regression baseline in
// the spirit of Zhang et al. [26] (numeric attributes only).
func NewLocalRegression(opts RegressionOptions) (Method, error) { return regression.New(opts) }

// DiscoverDCs finds denial constraints for the Holoclean baseline.
func DiscoverDCs(rel *Relation, opts DCDiscoveryOptions) []*DC { return dc.Discover(rel, opts) }

// Evaluation machinery.
type (
	// Injected records one artificially removed cell with ground truth.
	Injected = eval.Injected
	// Variant is one injected dataset of a (rate, seed) grid.
	Variant = eval.Variant
	// Validator is the rule-based result validator (value sets, regexes,
	// numeric deltas).
	Validator = eval.Validator
	// Metrics are precision / recall / F1 per the paper's definitions.
	Metrics = eval.Metrics
)

// Inject removes rate·cells values uniformly at random and returns the
// incomplete clone plus the ground truth.
func Inject(rel *Relation, rate float64, seed int64) (*Relation, []Injected, error) {
	return eval.Inject(rel, rate, seed)
}

// Mechanism names a missingness mechanism for InjectWithMechanism.
type Mechanism = eval.Mechanism

// The supported missingness mechanisms: the paper's uniform protocol and
// the two harder standard settings.
const (
	MCAR = eval.MCAR
	MAR  = eval.MAR
	MNAR = eval.MNAR
)

// InjectWithMechanism removes values under the chosen missingness
// mechanism (MCAR = the paper's protocol; MAR and MNAR bias removals by
// observed data and by the removed values themselves, respectively).
func InjectWithMechanism(rel *Relation, rate float64, mech Mechanism, seed int64) (*Relation, []Injected, error) {
	return eval.InjectWithMechanism(rel, rate, mech, seed)
}

// NewValidator returns a strict-equality validator; add rules with
// AddValueSet / SetRegex / SetDelta.
func NewValidator() *Validator { return eval.NewValidator() }

// LoadRules reads a rule file for the validator.
func LoadRules(r io.Reader) (*Validator, error) { return eval.ReadRules(r) }

// LoadRulesFile is LoadRules over a file path.
func LoadRulesFile(path string) (*Validator, error) { return eval.ReadRulesFile(path) }

// Score compares an imputed relation against the injected ground truth.
func Score(imputed *Relation, injected []Injected, v *Validator) Metrics {
	return eval.Score(imputed, injected, v)
}

// ScoreByAttribute breaks the evaluation down per attribute.
func ScoreByAttribute(imputed *Relation, injected []Injected, v *Validator) map[string]Metrics {
	return eval.ScoreByAttribute(imputed, injected, v)
}

// ImpliesRFD reports whether phi holding on an instance structurally
// guarantees psi holds.
func ImpliesRFD(phi, psi *RFD) bool { return rfd.Implies(phi, psi) }

// MinimizeRFDs returns an irredundant cover of the set (implied members
// dropped).
func MinimizeRFDs(sigma RFDSet) RFDSet { return rfd.Minimize(sigma) }

// RFDMaintainer keeps a discovered RFDc set valid as tuples arrive (the
// incremental-discovery prerequisite of the Sec. 7 streaming extension).
type RFDMaintainer = discovery.Maintainer

// NewRFDMaintainer starts incremental RFDc maintenance from a base
// instance and a set holding on it.
func NewRFDMaintainer(base *Relation, sigma RFDSet) *RFDMaintainer {
	return discovery.NewMaintainer(base, sigma)
}

// GenerateDataset synthesizes one of the paper's evaluation datasets
// ("restaurant", "cars", "glass", "bridges", "physician") at the given
// size and seed.
func GenerateDataset(name string, n int, seed int64) (*Relation, error) {
	return datagen.ByName(name, n, seed)
}

// DatasetNames lists the available synthetic datasets.
func DatasetNames() []string { return datagen.Names() }

// AttrProfile is one attribute's summary from Profile.
type AttrProfile = profile.AttrProfile

// ProfileOptions tunes Profile.
type ProfileOptions = profile.Options

// Profile computes per-attribute summaries (null rate, distinctness,
// numeric range, top values, sampled mean pairwise distance).
func Profile(rel *Relation, opts ProfileOptions) []AttrProfile {
	return profile.Relation(rel, opts)
}
