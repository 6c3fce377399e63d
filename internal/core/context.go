package core

import (
	"context"
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
// detection, optional donor-index build, then the per-cell imputation
// loop with cancellation checkpoints. work must be the relation the
// view compiles (a private clone of the caller's input). It returns the
// (possibly partial) result and engine.ErrCanceled when the context
// expired mid-run.
func (im *Imputer) runImpute(ctx context.Context, work *dataset.Relation, eng *engine.View, useIndex bool) (*Result, error) {
	runStart := time.Now()
	res := &Result{Relation: work}

	// One context lookup per run, not per cell: the request span (when
	// serve-mode middleware installed one) parents the whole run; a plain
	// context yields the zero span and every Child/End below is an inert
	// nil check.
	sp := obs.SpanFromContext(ctx).Child("impute")
	defer sp.End()

	// One kernel arena for the run goroutine: every serial scan below
	// evaluates through it, so the string kernels never allocate.
	// Parallel scans give each worker its own. The key tracker and the
	// verify plan share its RowPass buffers, reused from row to row and
	// cell to cell.
	m := eng.Matcher()
	var plan verifyPlan

	preStart := time.Now()
	preSpan := sp.Child("preprocess")
	kt := newKeyTracker(ctx, m, im.sigma)
	res.Stats.KeyRFDs = kt.keys
	incomplete := work.IncompleteRows()
	res.Stats.MissingCells = work.CountMissing()

	var idx donorIndex
	if useIndex {
		idx = newDonorIndex(eng, im.sigma, im.opts.DonorShards)
	}
	if preSpan.Enabled() {
		preSpan.Int("key_rfds", int64(kt.keys))
		preSpan.Int("missing_cells", int64(res.Stats.MissingCells))
		preSpan.End()
	}
	res.Stats.Phases.Preprocess = time.Since(preStart)
	if ctx.Err() != nil {
		// The key tracker may be incomplete; impute nothing from it.
		im.finishRun(res, eng, idx, runStart, sp)
		return res, engine.Canceled(ctx)
	}

	schema := work.Schema()
	for _, row := range incomplete {
		for _, attr := range work.Row(row).MissingAttrs() {
			if ctx.Err() != nil {
				im.finishRun(res, eng, idx, runStart, sp)
				return res, engine.Canceled(ctx)
			}
			sigmaPrime := kt.nonKeys()
			clusters := im.clustersFor(sigmaPrime, attr)
			cell := sp.Child("cell")
			var hits0, misses0 int64
			if cell.Enabled() {
				cell.Int("row", int64(row))
				cell.Str("attr", schema.Attr(attr).Name)
				hits0, misses0 = eng.CacheStats()
			}
			imputed, err := im.imputeMissingValue(ctx, m, &plan, row, attr, sigmaPrime, clusters, res, idx, cell)
			if cell.Enabled() {
				hits1, misses1 := eng.CacheStats()
				cell.Int("cache_hit_delta", hits1-hits0)
				cell.Int("cache_miss_delta", misses1-misses0)
				if imputed {
					cell.Int("imputed", 1)
				} else {
					cell.Int("imputed", 0)
				}
			}
			cell.End()
			if imputed {
				if idx != nil {
					idx.Insert(row, attr)
				}
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
				im.finishRun(res, eng, idx, runStart, sp)
				return res, err
			}
		}
	}
	im.finishRun(res, eng, idx, runStart, sp)
	return res, nil
}

// finishRun seals the result (tail counters, engine cache/index
// counters, total wall clock) and forwards the run to the configured
// recorder and the run span.
func (im *Imputer) finishRun(res *Result, eng *engine.View, idx donorIndex, runStart time.Time, sp obs.Span) {
	res.finish(eng.Relation())
	hits, misses := eng.CacheStats()
	res.Stats.EngineCacheHits = int(hits)
	res.Stats.EngineCacheMisses = int(misses)
	if idx != nil {
		res.Stats.EngineIndexProbes = int(idx.Probes())
	}
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
