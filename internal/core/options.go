// Package core implements RENUVER (RFD-based NUll ValuE Repairer), the
// paper's primary contribution: Algorithms 1-4 of Breve et al., EDBT 2022.
//
// Given a relation instance with missing values and a set Σ of RFDcs
// holding on it, RENUVER:
//
//	(a) pre-processes — collects the incomplete tuples r̂ and drops
//	    key-RFDcs from Σ (they cannot produce candidates);
//	(b) selects, per missing value t[A], the RFDcs with RHS A and clusters
//	    them by RHS threshold (tightest first);
//	(c) per cluster, finds plausible candidate tuples via the LHS
//	    constraints, ranks them by mean LHS distance (Eq. 2), and imputes
//	    with the closest candidate that keeps the instance semantically
//	    consistent (IS_FAULTLESS); imputed tuples immediately become donors
//	    for later missing values, and key-RFDcs are re-evaluated after
//	    every successful imputation (a key can turn non-key, Example 5.1).
//
// Observability: every run fills Result.Stats (counters plus per-phase
// wall clock) unconditionally, and an optional obs.Recorder — see
// WithRecorder — additionally receives the same events for cross-run
// aggregation (the `renuver serve -metrics-addr` mode). The default
// recorder is a no-op, so the hook costs library users nothing.
package core

import (
	"fmt"

	"repro/internal/obs"
)

// ClusterOrder selects the order in which RHS-threshold clusters are
// tried for one missing value.
type ClusterOrder int

const (
	// AscendingThreshold tries the tightest RHS cluster first. This is
	// the order in the prose of Sec. 5 step (b) and the worked example of
	// Figure 1 (ρ⁰ before ρ¹ before ρ²), and the package default.
	AscendingThreshold ClusterOrder = iota
	// DescendingThreshold tries the loosest cluster first — the literal
	// reading of Algorithm 2 line 1. Exposed for the ablation study.
	DescendingThreshold
)

// VerifyMode selects which dependencies IS_FAULTLESS re-checks after a
// tentative imputation of attribute A.
type VerifyMode int

const (
	// VerifyLHS re-checks only the RFDcs with A on the LHS — the literal
	// Algorithm 4 (its line 1 selects φ with A ⊆ X).
	VerifyLHS VerifyMode = iota
	// VerifyBothSides additionally re-checks RFDcs with A as the RHS
	// attribute: imputing t[A] can also newly witness an RHS breach.
	// This is the full Definition 4.3 semantic-consistency guarantee.
	VerifyBothSides
	// VerifyOff skips verification entirely (ablation A1): the closest
	// candidate always wins.
	VerifyOff
)

// Options tunes the imputer.
//
// Defaulting rule (uniform across Options, discovery.Config, and the
// serve flags): the zero value of every field is the paper-faithful
// default, zero numeric values mean "pick the default" (unlimited
// candidates), and negative numeric values are invalid — rejected by
// Validate and therefore by NewSession and the CLI at construction
// time, never silently clamped mid-run.
type Options struct {
	// ClusterOrder is the order RHS-threshold clusters are tried in.
	ClusterOrder ClusterOrder
	// Verify selects the IS_FAULTLESS behaviour.
	Verify VerifyMode
	// NoClustering disables the Λ partition (ablation A2): all RFDcs for
	// the attribute are treated as one flat cluster.
	NoClustering bool
	// NoRanking disables the distance sort of T_candidate (ablation A3):
	// candidates are tried in row order.
	NoRanking bool
	// NoKeyReevaluation disables Algorithm 1 line 14 (re-checking key
	// status after each imputation). Key-RFDcs then stay filtered with
	// their initial status for the whole run.
	NoKeyReevaluation bool
	// MaxCandidates, when positive, caps how many ranked candidates are
	// tried per cluster before moving on. Zero means unlimited.
	MaxCandidates int
	// Recorder receives pipeline events (counters, histograms, phase
	// timings) across runs. Nil means obs.Nop: Result.Stats is still
	// filled, but nothing is aggregated process-wide.
	Recorder obs.Recorder
	// Tracer receives per-cell decision traces (which donors were
	// considered, which RFDc vetoed a candidate, why a cell resolved the
	// way it did). Sampled cells also land in Result.Traces, queryable
	// with Result.Explain. Nil disables tracing entirely.
	Tracer obs.Tracer
}

// Validate rejects option values outside their documented domains, per
// the package defaulting rule: zero means default, negative is an
// error. Enum fields are checked against their defined values.
func (o *Options) Validate() error {
	if o.MaxCandidates < 0 {
		return fmt.Errorf("core: MaxCandidates must be >= 0, got %d", o.MaxCandidates)
	}
	if o.ClusterOrder != AscendingThreshold && o.ClusterOrder != DescendingThreshold {
		return fmt.Errorf("core: unknown ClusterOrder %d", o.ClusterOrder)
	}
	if o.Verify != VerifyLHS && o.Verify != VerifyBothSides && o.Verify != VerifyOff {
		return fmt.Errorf("core: unknown VerifyMode %d", o.Verify)
	}
	return nil
}

// recorder returns the configured Recorder, defaulting to the no-op.
func (o *Options) recorder() obs.Recorder {
	if o.Recorder == nil {
		return obs.Nop{}
	}
	return o.Recorder
}

// Option mutates Options; used by New.
type Option func(*Options)

// WithClusterOrder sets the cluster traversal order.
func WithClusterOrder(o ClusterOrder) Option { return func(op *Options) { op.ClusterOrder = o } }

// WithVerifyMode sets the IS_FAULTLESS behaviour.
func WithVerifyMode(m VerifyMode) Option { return func(op *Options) { op.Verify = m } }

// WithoutClustering flattens the Λ partition (ablation A2).
func WithoutClustering() Option { return func(op *Options) { op.NoClustering = true } }

// WithoutRanking keeps candidates in row order (ablation A3).
func WithoutRanking() Option { return func(op *Options) { op.NoRanking = true } }

// WithoutKeyReevaluation freezes key status at pre-processing time.
func WithoutKeyReevaluation() Option { return func(op *Options) { op.NoKeyReevaluation = true } }

// WithMaxCandidates caps the candidates tried per cluster.
func WithMaxCandidates(k int) Option { return func(op *Options) { op.MaxCandidates = k } }

// WithRecorder aggregates run events into r (typically an *obs.Metrics
// shared across runs). r must be safe for concurrent use when the same
// Imputer serves concurrent calls.
func WithRecorder(r obs.Recorder) Option { return func(op *Options) { op.Recorder = r } }

// WithTracer records per-cell decision traces into t (typically an
// *obs.RingTracer). Sampled cells additionally land in Result.Traces for
// Result.Explain. t must be safe for concurrent use when the same
// Imputer serves concurrent calls.
func WithTracer(t obs.Tracer) Option { return func(op *Options) { op.Tracer = t } }
