package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Stream is the paper's incremental-scenario extension (Sec. 7: "we
// would like to study the applicability of RENUVER over incremental
// scenarios ... which would require the usage of incremental RFDc
// discovery algorithms"). It keeps a growing instance and imputes each
// arriving tuple's missing values on arrival, maintaining the key-RFDc
// status incrementally instead of rescanning all tuple pairs:
//
//   - appending a tuple only adds pairs involving that tuple, so only
//     those pairs can flip a key-RFDc to non-key (key status is monotone
//     under growth, like under imputation);
//   - an arriving tuple immediately becomes a donor for later arrivals,
//     and earlier cells that stayed missing can be retried with
//     RetryMissing once new donors have accumulated.
//
// The session owns one engine view for its whole lifetime, so the
// memoized distances survive across arrivals: a value pair compared when
// tuple t arrived is a cache hit when tuple t' repeats it.
type Stream struct {
	im *Imputer
	v  *engine.View
	m  *engine.Matcher // stream-goroutine kernel arena over v
	// plan is the stream goroutine's verify plan (buffers reused).
	plan verifyPlan
	kt   *keyTracker
	// stats accumulates over the stream's lifetime.
	stats Stats
	// cacheHits/cacheMisses checkpoint the view's cache counters so each
	// per-cell Stats carries only that cell's delta.
	cacheHits, cacheMisses int64
}

// NewStream starts an incremental session seeded with the base instance
// (which is cloned; missing values in the base are NOT imputed — call
// RetryMissing for that).
func (im *Imputer) NewStream(base *dataset.Relation) *Stream {
	v := engine.Compile(base.Clone())
	m := v.Matcher()
	return &Stream{
		im: im,
		v:  v,
		m:  m,
		kt: newKeyTracker(context.Background(), m, im.sigma),
	}
}

// Relation exposes the accumulated instance. Callers must not mutate it.
func (s *Stream) Relation() *dataset.Relation { return s.v.Relation() }

// Stats returns the counters accumulated so far.
func (s *Stream) Stats() Stats { return s.stats }

// Append adds one tuple, updates the key-RFDc status with the new pairs,
// and imputes the tuple's missing values against the accumulated
// instance. It returns the imputations performed for this tuple.
func (s *Stream) Append(t dataset.Tuple) ([]Imputation, error) {
	work := s.v.Relation()
	if len(t) != work.Schema().Len() {
		return nil, fmt.Errorf("core: stream tuple arity %d != schema arity %d",
			len(t), work.Schema().Len())
	}
	if err := s.v.Append(t.Clone()); err != nil {
		return nil, err
	}
	row := work.Len() - 1
	s.kt.absorbRow(row)
	s.im.opts.recorder().Add(obs.CtrStreamAppends, 1)

	var out []Imputation
	for _, attr := range work.Row(row).MissingAttrs() {
		s.stats.MissingCells++
		res := &Result{Relation: work}
		res.Stats.MissingCells = 1
		sigmaPrime := s.kt.nonKeys()
		clusters := s.im.clustersFor(sigmaPrime, attr)
		if ok, _ := s.im.imputeMissingValue(context.Background(), s.m, &s.plan, row, attr, sigmaPrime, clusters, res, nil, obs.Span{}); ok {
			if !s.im.opts.NoKeyReevaluation {
				before := s.kt.keys
				s.kt.afterImpute(row, attr)
				s.stats.KeyFlips += before - s.kt.keys
				res.Stats.KeyFlips = before - s.kt.keys
			}
			out = append(out, res.Imputations...)
			s.stats.Imputed++
		} else {
			s.stats.Unimputed++
		}
		res.Stats.Imputed = len(res.Imputations)
		s.accumulate(res)
	}
	return out, nil
}

// RetryMissing re-attempts every still-missing cell in the accumulated
// instance — earlier arrivals may have become imputable as donors and
// freed key-RFDcs accumulated. It returns the new imputations.
func (s *Stream) RetryMissing() []Imputation {
	work := s.v.Relation()
	var out []Imputation
	for _, cell := range work.MissingCells() {
		res := &Result{Relation: work}
		sigmaPrime := s.kt.nonKeys()
		clusters := s.im.clustersFor(sigmaPrime, cell.Attr)
		if ok, _ := s.im.imputeMissingValue(context.Background(), s.m, &s.plan, cell.Row, cell.Attr, sigmaPrime, clusters, res, nil, obs.Span{}); ok {
			if !s.im.opts.NoKeyReevaluation {
				before := s.kt.keys
				s.kt.afterImpute(cell.Row, cell.Attr)
				s.stats.KeyFlips += before - s.kt.keys
				res.Stats.KeyFlips = before - s.kt.keys
			}
			out = append(out, res.Imputations...)
			s.stats.Imputed++
			s.stats.Unimputed--
		}
		res.Stats.Imputed = len(res.Imputations)
		s.accumulate(res)
	}
	return out
}

// accumulate folds one per-cell run's counters into the stream totals
// and forwards them to the configured recorder. The engine cache
// counters are deltas against the previous checkpoint, since the view
// (and its cache) is shared across the stream's lifetime.
func (s *Stream) accumulate(res *Result) {
	hits, misses := s.v.CacheStats()
	res.Stats.EngineCacheHits = int(hits - s.cacheHits)
	res.Stats.EngineCacheMisses = int(misses - s.cacheMisses)
	s.cacheHits, s.cacheMisses = hits, misses

	st := res.Stats
	s.stats.DonorsScanned += st.DonorsScanned
	s.stats.CandidatesEvaluated += st.CandidatesEvaluated
	s.stats.DonorsRanked += st.DonorsRanked
	s.stats.CandidatesTried += st.CandidatesTried
	s.stats.FaultlessChecks += st.FaultlessChecks
	s.stats.VerifyRejections += st.VerifyRejections
	s.stats.ClustersScanned += st.ClustersScanned
	s.stats.IndexHits += st.IndexHits
	s.stats.IndexMisses += st.IndexMisses
	s.stats.EngineCacheHits += st.EngineCacheHits
	s.stats.EngineCacheMisses += st.EngineCacheMisses
	for attr, n := range st.ImputedByAttr {
		for i := 0; i < n; i++ {
			s.stats.countImputed(attr, s.v.Arity())
		}
	}
	s.stats.Phases.CandidateSearch += st.Phases.CandidateSearch
	s.stats.Phases.Ranking += st.Phases.Ranking
	s.stats.Phases.Verify += st.Phases.Verify
	s.stats.Phases.KeyReeval += st.Phases.KeyReeval
	publishStats(s.im.opts.recorder(), &st)
}
