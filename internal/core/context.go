package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
)

// ImputeContext is Impute with cooperative cancellation: the context is
// checked between missing values and inside the donor-scan and
// verification loops, so a cancelled or deadline-exceeded run stops
// promptly and returns the partially imputed result alongside a typed
// engine.ErrCanceled (which also matches the context's own error under
// errors.Is). The partial result is well-formed — every cell already
// imputed passed verification — which makes time-bounded best-effort
// imputation a first-class mode rather than an abandoned goroutine.
//
// Deprecated semantics note: this used to be the one ad-hoc
// context-aware entry point. It is now a thin wrapper over an ephemeral
// Session; long-lived callers should construct a Session once and call
// Session.Impute per request instead.
func (im *Imputer) ImputeContext(ctx context.Context, rel *dataset.Relation) (*Result, error) {
	s := &Session{im: im}
	return s.Impute(ctx, rel)
}

// runImpute is Algorithm 1 over an already-compiled view: key-RFDc
// detection, then the per-cell imputation loop with cancellation
// checkpoints. work must be the relation the view compiles (a private
// clone of the caller's input). It returns the (possibly partial)
// result and engine.ErrCanceled when the context expired mid-run.
func (im *Imputer) runImpute(ctx context.Context, work *dataset.Relation, eng *engine.View) (*Result, error) {
	runStart := time.Now()
	res := &Result{Relation: work}

	// One context lookup per run, not per cell: the request span (when
	// serve-mode middleware installed one) parents the whole run; a plain
	// context yields the zero span and every Child/End below is an inert
	// nil check.
	sp := obs.SpanFromContext(ctx).Child("impute")
	defer sp.End()

	// One matcher for the run, from the pool: every scan below evaluates
	// through its kernel arena, so the string kernels never allocate.
	// Key detection, candidate search, the verify plan and key
	// re-evaluation share its RowPass buffers and the query row's kept
	// distance columns, capped for Σ.
	m := eng.Matcher()
	defer m.Release()
	m.Keep(im.sigma)
	rs := takeRunState()
	defer rs.release()
	kt := &rs.kt

	preStart := time.Now()
	preSpan := sp.Child("preprocess")
	kt.init(ctx, m, im.sigma)
	res.Stats.KeyRFDs = kt.keys
	incomplete := work.IncompleteRows()
	res.Stats.MissingCells = work.CountMissing()
	if preSpan.Enabled() {
		preSpan.Int("key_rfds", int64(kt.keys))
		preSpan.Int("missing_cells", int64(res.Stats.MissingCells))
		preSpan.End()
	}
	res.Stats.Phases.Preprocess = time.Since(preStart)
	if ctx.Err() != nil {
		// The key tracker may be incomplete; impute nothing from it.
		im.finishRun(res, eng, runStart, sp)
		return res, engine.Canceled(ctx)
	}

	schema := work.Schema()
	for _, row := range incomplete {
		for _, attr := range work.Row(row).MissingAttrs() {
			if ctx.Err() != nil {
				im.finishRun(res, eng, runStart, sp)
				return res, engine.Canceled(ctx)
			}
			cell := sp.Child("cell")
			if cell.Enabled() {
				cell.Int("row", int64(row))
				cell.Str("attr", schema.Attr(attr).Name)
			}
			imputed, err := im.imputeMissingValue(ctx, m, rs, row, attr, res, cell)
			if cell.Enabled() {
				if imputed {
					cell.Int("imputed", 1)
				} else {
					cell.Int("imputed", 0)
				}
			}
			cell.End()
			if imputed {
				if !im.opts.NoKeyReevaluation {
					reevalStart := time.Now()
					krSpan := sp.Child("key_reeval")
					before := kt.keys
					kt.afterImpute(row, attr)
					res.Stats.KeyFlips += before - kt.keys
					if krSpan.Enabled() {
						krSpan.Int("key_flips", int64(before-kt.keys))
						krSpan.End()
					}
					res.Stats.Phases.KeyReeval += time.Since(reevalStart)
				}
			}
			if err != nil {
				im.finishRun(res, eng, runStart, sp)
				return res, err
			}
		}
	}
	im.finishRun(res, eng, runStart, sp)
	return res, nil
}

// runState is what a run goroutine carries from cell to cell: the key
// tracker with its rule cache, the verify plan with its memo, and the
// candidate buffer. Runs take one from a free list and give it back, so
// a steady stream of runs reuses its buffers; like the matcher pool's,
// the list keeps at most maxFreeRuns.
type runState struct {
	kt    keyTracker
	plan  verifyPlan
	cands []candidate
}

var runStates struct {
	sync.Mutex
	free []*runState
}

const maxFreeRuns = 64

// takeRunState returns a run state from the free list, or a new one.
func takeRunState() *runState {
	runStates.Lock()
	defer runStates.Unlock()
	if n := len(runStates.free); n > 0 {
		rs := runStates.free[n-1]
		runStates.free[n-1] = nil
		runStates.free = runStates.free[:n-1]
		return rs
	}
	return &runState{}
}

// release drops the state's references into the finished run and
// returns it to the free list. The caller must not use it afterwards.
func (rs *runState) release() {
	rs.kt.forget()
	rs.plan.rules = nil
	runStates.Lock()
	if len(runStates.free) < maxFreeRuns {
		runStates.free = append(runStates.free, rs)
	}
	runStates.Unlock()
}

// finishRun seals the result (tail counters, total wall clock) and
// forwards the run to the configured recorder and the run span.
func (im *Imputer) finishRun(res *Result, eng *engine.View, runStart time.Time, sp obs.Span) {
	res.finish(eng.Relation())
	res.Stats.Phases.Total = time.Since(runStart)
	if sp.Enabled() {
		sp.Int("missing_cells", int64(res.Stats.MissingCells))
		sp.Int("imputed", int64(res.Stats.Imputed))
		sp.Int("unimputed", int64(res.Stats.Unimputed))
	}
	rec := im.opts.recorder()
	publishStats(rec, &res.Stats)
	if rec.Enabled() {
		rec.Observe(obs.HistImputeMicros, float64(res.Stats.Phases.Total.Microseconds()))
	}
}

// finish populates the unimputed list and the tail counters.
func (res *Result) finish(work *dataset.Relation) {
	res.Unimputed = res.Unimputed[:0]
	for _, c := range work.MissingCells() {
		res.Unimputed = append(res.Unimputed, c)
	}
	res.Stats.Imputed = len(res.Imputations)
	res.Stats.Unimputed = len(res.Unimputed)
}
