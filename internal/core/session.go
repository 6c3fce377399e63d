package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// Session is the compile-once serve-many form of the imputer: one
// NewSession call validates Σ and the options and — when a base
// instance is supplied — precompiles it into a shared engine artifact
// (columnar form and interning tables). Every subsequent Impute call
// then serves against those read-only artifacts with only per-request
// state (a clone of the request relation and a request-local
// column/interner tier), so concurrent calls never contend and per-call cost is O(request),
// not O(request + base).
//
// The two base modes:
//
//   - base != nil: the base acts as the donor pool of every request
//     (the multi-dataset extension, ImputeWithDonors semantics): its
//     tuples contribute candidate values but are never imputed, never
//     verified against, and donate pairs to key-RFDc detection.
//   - base == nil: each request is self-contained — identical semantics
//     to Imputer.Impute. This is the ephemeral mode the free functions
//     wrap.
//
// Sessions with a base are live: ApplyDelta evolves the base in place
// by publishing a new epoch (see delta.go), and every read serves
// against the one epoch it pinned at entry. A Session is safe for any
// number of concurrent Impute / Explain calls, concurrently with at
// most-serialized ApplyDelta writers.
type Session struct {
	im *Imputer

	// cur is the session's current epoch — the compiled base and the Σ
	// in force, published together so readers can never observe a
	// half-applied delta. Nil in self-contained mode (and in the
	// internal Imputer-wrapping constructions).
	cur atomic.Pointer[epochState]
	// applyMu serializes ApplyDelta writers; readers never take it.
	applyMu sync.Mutex

	// art is the metadata of the artifact this session was loaded from
	// or last encoded to; nil for sessions that never touched one. It is
	// boot provenance: deltas applied afterwards do not clear it.
	art *ArtifactInfo
}

// newEpoch publishes the session's first epoch (seq 0).
func (s *Session) newEpoch(shared *engine.Shared, sigma rfd.Set) {
	s.cur.Store(&epochState{
		shared: shared,
		sigma:  sigma,
		rec:    s.im.opts.recorder(),
	})
}

// NewSession builds a Session over Σ. base may be nil (self-contained
// mode). A non-nil base is cloned, so later caller-side mutation of the
// original cannot corrupt the compiled artifacts — ApplyDelta is the
// only way to change a session's base. Option values are validated
// here — once — rather than on every request.
func NewSession(base *dataset.Relation, sigma rfd.Set, opts ...Option) (*Session, error) {
	im := New(sigma, opts...)
	if err := im.opts.Validate(); err != nil {
		return nil, err
	}
	s := &Session{im: im}
	if base != nil {
		if err := validateSigma(sigma, base.Schema().Len()); err != nil {
			return nil, err
		}
		s.newEpoch(engine.Precompile(base.Clone()), sigma)
	}
	return s, nil
}

// WithSigma derives a Session serving a different Σ against the same
// precompiled base — the serve-mode flow (precompile the base, discover
// Σ from it, then serve with the discovered Σ) without a second compile
// of the base. The receiver's options carry over.
//
// The derived session snapshots the receiver's current epoch: it keeps
// serving that compiled base even if deltas later evolve the receiver,
// and deltas applied to the derived session do not reach the receiver.
func (s *Session) WithSigma(sigma rfd.Set) (*Session, error) {
	ep := s.cur.Load()
	if ep != nil {
		if err := validateSigma(sigma, ep.shared.Arity()); err != nil {
			return nil, err
		}
	}
	out := &Session{im: &Imputer{sigma: sigma, opts: s.im.opts}}
	if ep != nil {
		// The artifact metadata does not carry over: it describes the Σ
		// it was compiled with.
		out.cur.Store(&epochState{
			seq:    ep.seq,
			shared: ep.shared,
			sigma:  sigma,
			rec:    out.im.opts.recorder(),
		})
	}
	return out, nil
}

// Sigma returns the dependency set currently in force — the
// constructor's set as repaired by any applied deltas' revalidation.
// Callers must not mutate it.
func (s *Session) Sigma() rfd.Set { return s.sigmaAt(s.cur.Load()) }

// BaseView returns a frozen read-only view over the precompiled base at
// the current epoch — the input for running discovery against the base
// without recompiling it — or nil in self-contained mode.
func (s *Session) BaseView() *engine.View {
	ep := s.cur.Load()
	if ep == nil {
		return nil
	}
	return ep.shared.View()
}

// Discover mines RFDcs from the session's precompiled base without
// recompiling it. Pair it with WithSigma to serve the discovered set.
// Self-contained sessions (nil base) have no instance to mine and
// return an error.
func (s *Session) Discover(ctx context.Context, cfg discovery.Config) (rfd.Set, error) {
	ep := s.pin()
	if ep == nil {
		return nil, fmt.Errorf("core: session has no base instance to discover from")
	}
	defer ep.unpin()
	if sp := obs.SpanFromContext(ctx).Child("discover"); sp.Enabled() {
		// Re-anchor the context so the discovery phases nest under this
		// span; the rewrite (one allocation) happens only when a request
		// trace is live.
		defer sp.End()
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	return discovery.DiscoverViewContext(ctx, ep.shared.View(), cfg)
}

// Impute runs RENUVER on the request relation against the session's
// compiled artifacts. The input is never mutated. An expired context is
// rejected in O(1) — before any clone or compile — with a non-nil empty
// Result and engine.ErrCanceled; mid-run expiry returns the partial
// well-formed result the cancellation checkpoints produced.
//
// The call pins the current epoch for its whole duration: a concurrent
// ApplyDelta neither blocks it nor changes what it sees.
func (s *Session) Impute(ctx context.Context, rel *dataset.Relation) (*Result, error) {
	if ctx.Err() != nil {
		return &Result{}, engine.Canceled(ctx)
	}
	ep := s.pin()
	if ep != nil {
		defer ep.unpin()
	}
	return s.imputeEpoch(ctx, rel, s.im, ep)
}

// imputeEpoch runs one imputation against a pinned epoch (nil = the
// self-contained path). The options always come from im; the compiled
// base and the Σ served come from the epoch when one is pinned, so the
// (view, Σ) pair can never tear against a concurrent delta.
func (s *Session) imputeEpoch(ctx context.Context, rel *dataset.Relation, im *Imputer, ep *epochState) (*Result, error) {
	if ep != nil {
		if !rel.Schema().Equal(ep.shared.Relation().Schema()) {
			return nil, fmt.Errorf("core: request schema %q incompatible with session base %q",
				rel.Schema(), ep.shared.Relation().Schema())
		}
		im = &Imputer{sigma: ep.sigma, opts: im.opts}
	}
	if err := validateSigma(im.sigma, rel.Schema().Len()); err != nil {
		return nil, err
	}
	work := rel.Clone()
	var eng *engine.View
	if ep != nil {
		// Donor-pool mode: only the request rows are compiled; the base
		// tier is shared.
		eng = ep.shared.Extend(work)
	} else {
		eng = engine.Compile(work)
	}
	return im.runImpute(ctx, work, eng)
}

// Explain reruns the request with a tracer pinned to one cell and
// renders the decision tree for it: which clusters applied, which
// donors ranked where, which RFDc vetoed a candidate, and why the cell
// resolved (or didn't). It returns "" when the cell was not missing in
// the request.
func (s *Session) Explain(ctx context.Context, rel *dataset.Relation, row, attr int) (string, error) {
	if ctx.Err() != nil {
		return "", engine.Canceled(ctx)
	}
	if row < 0 || row >= rel.Len() || attr < 0 || attr >= rel.Schema().Len() {
		return "", fmt.Errorf("core: cell (row %d, attr %d) outside a %dx%d relation",
			row, attr, rel.Len(), rel.Schema().Len())
	}
	if sp := obs.SpanFromContext(ctx).Child("explain"); sp.Enabled() {
		sp.Int("row", int64(row))
		sp.Int("attr", int64(attr))
		defer sp.End()
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	ep := s.pin()
	if ep != nil {
		defer ep.unpin()
	}
	tr := obs.NewRingTracer(1, 1)
	tr.Only(row, attr)
	traced := &Imputer{sigma: s.sigmaAt(ep), opts: s.im.opts}
	traced.opts.Tracer = tr
	res, err := s.imputeEpoch(ctx, rel, traced, ep)
	if err != nil {
		return "", err
	}
	return res.ExplainText(rel.Schema(), row, attr), nil
}
