package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// Imputer runs the RENUVER imputation process for one Σ and one Options
// configuration. It is stateless across Impute calls and safe to reuse.
type Imputer struct {
	sigma rfd.Set
	opts  Options
}

// New returns an Imputer over Σ with the given options applied to the
// paper-faithful defaults.
func New(sigma rfd.Set, opts ...Option) *Imputer {
	im := &Imputer{sigma: sigma}
	for _, o := range opts {
		o(&im.opts)
	}
	return im
}

// Imputation records one successfully imputed cell with its provenance.
type Imputation struct {
	Cell  dataset.Cell  // the imputed position
	Value dataset.Value // the value taken from the donor
	Donor int           // row index of the donor tuple t_j
	// DonorSource is -1 for the target instance itself; 0.. indexes the
	// donor pool when the multi-dataset extension (ImputeWithDonors) was
	// used.
	DonorSource      int
	Distance         float64 // dist_min of the winning candidate (Eq. 2)
	ClusterThreshold float64 // RHS threshold of the cluster that produced it
	Attempt          int     // how many ranked candidates were tried (1 = first)
}

// PhaseTimes breaks one run's wall clock into the pipeline phases the
// paper's cost model names: candidate retrieval and ranking (Algorithm 3
// + Eq. 2) and IS_FAULTLESS verification (Algorithm 4), plus the
// bookkeeping around them. Phases do not sum to Total: the loop glue and
// result assembly are unattributed.
type PhaseTimes struct {
	// Preprocess is key-RFDc detection.
	Preprocess time.Duration
	// CandidateSearch is the donor scans of Algorithm 3.
	CandidateSearch time.Duration
	// Ranking is the distance sort of T_candidate.
	Ranking time.Duration
	// Verify is IS_FAULTLESS across all tentative imputations.
	Verify time.Duration
	// KeyReeval is the post-imputation key re-evaluation (Alg. 1 l. 14).
	KeyReeval time.Duration
	// Total is the whole run, entry to return.
	Total time.Duration
}

// Stats aggregates counters over one Impute run.
type Stats struct {
	MissingCells        int // cells that were null on input
	Imputed             int // cells successfully imputed
	Unimputed           int // cells left null
	KeyRFDs             int // RFDcs filtered as keys during pre-processing
	DonorsScanned       int // donor tuples examined during candidate search: Len()-1 per cluster
	CandidatesEvaluated int // (tuple, cluster) candidate tuples scored
	DonorsRanked        int // candidates that entered the distance sort
	CandidatesTried     int // tentative imputations attempted
	FaultlessChecks     int // IS_FAULTLESS invocations
	VerifyRejections    int // tentative imputations rejected by IS_FAULTLESS
	ClustersScanned     int // clusters examined across all missing values
	KeyFlips            int // key-RFDcs that became non-key mid-run
	// IndexHits, IndexMisses and EngineIndexProbes are always 0: every
	// candidate search reads the query row's kept distance columns, and
	// there is no donor index. The fields stay for readers of Stats.
	IndexHits   int
	IndexMisses int
	// EngineCacheHits and EngineCacheMisses are always 0: the engine
	// keeps no distance memo. The fields stay for readers of Stats.
	EngineCacheHits   int
	EngineCacheMisses int
	EngineIndexProbes int
	// ImputedByAttr counts successful imputations per attribute position
	// (len = schema arity; nil when the run imputed nothing).
	ImputedByAttr []int
	// Phases is the per-phase wall-clock breakdown.
	Phases PhaseTimes
}

// countImputed attributes one successful imputation to its attribute.
func (s *Stats) countImputed(attr, arity int) {
	if s.ImputedByAttr == nil {
		s.ImputedByAttr = make([]int, arity)
	}
	s.ImputedByAttr[attr]++
}

// publishStats forwards one run's counters and phase timings to a
// recorder, as a single batch so the hot loops never pay interface
// dispatch per event.
func publishStats(rec obs.Recorder, s *Stats) {
	if rec == nil || !rec.Enabled() {
		return
	}
	rec.Add(obs.CtrMissingCells, int64(s.MissingCells))
	rec.Add(obs.CtrImputations, int64(s.Imputed))
	rec.Add(obs.CtrDonorsScanned, int64(s.DonorsScanned))
	rec.Add(obs.CtrCandidatesEvaluated, int64(s.CandidatesEvaluated))
	rec.Add(obs.CtrDonorsRanked, int64(s.DonorsRanked))
	rec.Add(obs.CtrCandidatesTried, int64(s.CandidatesTried))
	rec.Add(obs.CtrFaultlessChecks, int64(s.FaultlessChecks))
	rec.Add(obs.CtrFaultlessFailures, int64(s.VerifyRejections))
	rec.Add(obs.CtrClustersScanned, int64(s.ClustersScanned))
	rec.Add(obs.CtrKeyFlips, int64(s.KeyFlips))
	rec.Time(obs.PhasePreprocess, s.Phases.Preprocess)
	rec.Time(obs.PhaseCandidateSearch, s.Phases.CandidateSearch)
	rec.Time(obs.PhaseRanking, s.Phases.Ranking)
	rec.Time(obs.PhaseVerify, s.Phases.Verify)
	rec.Time(obs.PhaseKeyReeval, s.Phases.KeyReeval)
	rec.Time(obs.PhaseTotal, s.Phases.Total)
}

// Result is the outcome of one Impute run.
type Result struct {
	// Relation is the imputed instance r' (a clone; the input is not
	// mutated).
	Relation *dataset.Relation
	// Imputations lists the filled cells in imputation order.
	Imputations []Imputation
	// Unimputed lists the cells left missing because no candidate passed.
	Unimputed []dataset.Cell
	// Stats carries the run counters.
	Stats Stats
	// Traces holds the per-cell decision traces collected for the cells
	// the run's Tracer sampled (nil without WithTracer). Query with
	// Explain / ExplainText.
	Traces map[dataset.Cell][]obs.TraceEvent
}

// ImputedValue returns the imputation record for a cell, if that cell was
// filled during the run.
func (res *Result) ImputedValue(c dataset.Cell) (Imputation, bool) {
	for _, imp := range res.Imputations {
		if imp.Cell == c {
			return imp, true
		}
	}
	return Imputation{}, false
}

// validateSigma rejects dependencies referencing attributes outside the
// schema.
func validateSigma(sigma rfd.Set, m int) error {
	for _, dep := range sigma {
		if dep.RHS.Attr >= m {
			return fmt.Errorf("core: RFD references attribute %d, schema has %d", dep.RHS.Attr, m)
		}
		for _, c := range dep.LHS {
			if c.Attr >= m {
				return fmt.Errorf("core: RFD references attribute %d, schema has %d", c.Attr, m)
			}
		}
	}
	return nil
}

// Impute runs RENUVER (Algorithm 1) on the instance and returns the
// imputed clone. The input relation is never mutated. It fails if an RFDc
// in Σ references an attribute outside the relation's schema.
//
// The RFDc selection step (Algorithm 1, lines 7-10) is folded into the
// imputation loop: Σ'_A and its Λ clusters are derived from the *current*
// Σ' for each missing value, so that key-RFDcs freed by earlier
// imputations (line 14, Example 5.1) immediately become available.
func (im *Imputer) Impute(rel *dataset.Relation) (*Result, error) {
	return im.ImputeContext(context.Background(), rel)
}

// clustersFor builds Λ_Σ'_A for the attribute under the configured
// ordering and clustering options.
func (im *Imputer) clustersFor(sigmaPrime rfd.Set, attr int) []rfd.Cluster {
	forA := sigmaPrime.ForRHS(attr)
	if len(forA) == 0 {
		return nil
	}
	if im.opts.NoClustering {
		// Ablation A2: one flat cluster holding every RFDc for A.
		maxTh := forA[0].RHSThreshold()
		for _, dep := range forA[1:] {
			if th := dep.RHSThreshold(); th > maxTh {
				maxTh = th
			}
		}
		return []rfd.Cluster{{Threshold: maxTh, RFDs: forA}}
	}
	clusters := rfd.ClusterByRHSThreshold(forA)
	if im.opts.ClusterOrder == DescendingThreshold {
		for i, j := 0, len(clusters)-1; i < j; i, j = i+1, j-1 {
			clusters[i], clusters[j] = clusters[j], clusters[i]
		}
	}
	return clusters
}

// candidate is one entry of T_candidate: a donor row and its dist_min.
type candidate struct {
	row  int
	dist float64
}

// imputeMissingValue is Algorithm 2. It returns true when the cell was
// imputed, and a non-nil error when the context expired mid-cell — the
// working relation is then left consistent (any tentative value was
// reverted) but the cell unresolved. m is the run's matcher over the
// compiled view of the working relation (plus, for the multi-dataset
// extension, the donor pool): candidate rows are flat view indices.
// Σ', Λ_Σ'_A and the verify terms come from rs's key tracker, and
// rs.plan is rebuilt for this cell by its first untraced verification
// and reused by every later candidate of every cluster.
func (im *Imputer) imputeMissingValue(ctx context.Context, m *engine.Matcher, rs *runState, row, attr int,
	res *Result, cell obs.Span) (bool, error) {

	rec := im.opts.recorder()
	eng := m.View()
	work := eng.Relation()
	ct := obs.StartCell(im.opts.Tracer, row, attr)
	rules := rs.kt.rulesFor(im, attr, ct != nil)
	if ct != nil {
		ct.Add(obs.CellStarted(len(rules.clusters)))
		defer res.addTrace(dataset.Cell{Row: row, Attr: attr}, ct)
	}
	plan := &rs.plan
	plan.reset(row, attr, rules)
	anyCandidate := false
	for _, cluster := range rules.clusters {
		if ctx.Err() != nil {
			return false, engine.Canceled(ctx)
		}
		res.Stats.ClustersScanned++
		if ct != nil {
			ct.Add(obs.RuleSelected(cluster.Threshold, formatRules(cluster.RFDs, work.Schema())))
		}
		searchStart := time.Now()
		searchSpan := cell.Child("candidate_search")
		donorPool := eng.Len() - 1
		res.Stats.DonorsScanned += donorPool
		cands := findCandidateTuples(ctx, m, row, attr, cluster.RFDs, rs.cands[:0])
		rs.cands = cands
		if searchSpan.Enabled() {
			searchSpan.Int("donor_pool", int64(donorPool))
			searchSpan.Int("candidates", int64(len(cands)))
			searchSpan.End()
		}
		res.Stats.Phases.CandidateSearch += time.Since(searchStart)
		if ctx.Err() != nil {
			// The scan may have returned early with a partial candidate
			// list; drop it rather than rank and impute from it.
			return false, engine.Canceled(ctx)
		}
		res.Stats.CandidatesEvaluated += len(cands)
		if rec.Enabled() {
			rec.Observe(obs.HistCandidatesPerCell, float64(len(cands)))
		}
		if len(cands) == 0 {
			continue
		}
		anyCandidate = true
		if !im.opts.NoRanking {
			res.Stats.DonorsRanked += len(cands)
			rankStart := time.Now()
			rankSpan := cell.Child("ranking")
			// Ascending dist; ties broken by flat row index, which orders
			// target rows before donor-pool rows — the same (source, row)
			// tiebreak as before.
			slices.SortFunc(cands, func(a, b candidate) int {
				if c := cmp.Compare(a.dist, b.dist); c != 0 {
					return c
				}
				return cmp.Compare(a.row, b.row)
			})
			if rankSpan.Enabled() {
				rankSpan.Int("ranked", int64(len(cands)))
				rankSpan.End()
			}
			res.Stats.Phases.Ranking += time.Since(rankStart)
		}
		traceDonorEvents(ct, eng, row, cluster.RFDs, len(cands),
			func(k int) (int, float64) {
				return cands[k].row, cands[k].dist
			})
		limit := len(cands)
		if im.opts.MaxCandidates > 0 && im.opts.MaxCandidates < limit {
			limit = im.opts.MaxCandidates
		}
		verifyStart := time.Now()
		verifySpan := cell.Child("verify")
		plannedBefore := plan.state != planPending
		k, hits, err := im.tryCandidates(ctx, m, plan, row, attr, cands[:limit], res, ct)
		res.Stats.Phases.Verify += time.Since(verifyStart)
		if hits > 0 && rec.Enabled() {
			rec.Add(obs.CtrVerifyMemoHits, int64(hits))
		}
		if err != nil {
			verifySpan.End()
			return false, err
		}
		if k < 0 {
			endVerifySpan(verifySpan, limit, 0, hits, plan, plannedBefore)
			continue
		}
		cand := cands[k]
		source, donorRow := eng.SourceOf(cand.row)
		value := eng.Value(cand.row, attr)
		res.Imputations = append(res.Imputations, Imputation{
			Cell:             dataset.Cell{Row: row, Attr: attr},
			Value:            value,
			Donor:            donorRow,
			DonorSource:      source,
			Distance:         cand.dist,
			ClusterThreshold: cluster.Threshold,
			Attempt:          k + 1,
		})
		res.Stats.countImputed(attr, work.Schema().Len())
		if rec.Enabled() {
			rec.Observe(obs.HistAttemptsPerImputation, float64(k+1))
		}
		ct.Add(obs.CellResolved(donorRow, source, value.String(), cand.dist, k+1))
		endVerifySpan(verifySpan, k+1, 1, hits, plan, plannedBefore)
		return true, nil
	}
	if ct != nil {
		note := "no plausible candidate tuple in any cluster"
		if anyCandidate {
			note = "every ranked candidate failed IS_FAULTLESS"
		}
		ct.Add(obs.CellAbandoned(note))
	}
	return false, nil
}

// tryCandidates is Algorithm 2's inner loop over one cluster's ranked
// candidates: each value is written tentatively to t[A], checked with
// IS_FAULTLESS and reverted when rejected. It returns the index of the
// first candidate that passes, leaving its value in t[A], or -1, and
// the memo hits: an untraced cell rejects a value it already rejected
// from the plan's memo, with no write and no check. Stats count that
// candidate as tried and rejected all the same.
func (im *Imputer) tryCandidates(ctx context.Context, m *engine.Matcher, plan *verifyPlan, row, attr int,
	cands []candidate, res *Result, ct *obs.CellTrace) (accepted, memoHits int, err error) {

	eng := m.View()
	for k, cand := range cands {
		if ctx.Err() != nil {
			return -1, memoHits, engine.Canceled(ctx)
		}
		res.Stats.CandidatesTried++
		res.Stats.FaultlessChecks++
		var key engine.ValueKey
		if ct == nil {
			if key = eng.Key(cand.row, attr); plan.rejected(key) {
				memoHits++
				res.Stats.VerifyRejections++
				continue
			}
		}
		eng.Set(row, attr, eng.Value(cand.row, attr)) // tentative t[A] <- t_j[A]
		var faultless bool
		if ct != nil {
			// Traced cells take the serial witness-reporting verifier:
			// the violated RFDc and witness row are part of the trace,
			// and per-cell serial verification keeps the event order
			// deterministic. Sampling keeps this affordable.
			source, donorRow := eng.SourceOf(cand.row)
			ok, violated, witness := im.isFaultlessWitness(ctx, m, row, attr, plan.rules.sigma)
			faultless = ok
			ct.Add(obs.FaultlessVerdict(donorRow, k+1, ok))
			if !ok && violated != nil {
				// violated is nil when the verifier was aborted by an
				// expired context: no witness to report, and the ctx
				// check below discards the attempt anyway.
				ct.Add(obs.CandidateRejected(donorRow, source, k+1,
					violated.Format(eng.Relation().Schema()), witness))
			}
		} else {
			faultless = plan.faultless(ctx, im, m)
		}
		if ctx.Err() != nil {
			// A verdict reached under an expired context is not
			// trusted: revert the tentative value and bail.
			eng.Set(row, attr, dataset.Null)
			return -1, memoHits, engine.Canceled(ctx)
		}
		if faultless {
			return k, memoHits, nil
		}
		res.Stats.VerifyRejections++
		eng.Set(row, attr, dataset.Null) // revert
		if ct == nil {
			plan.reject(key)
		}
	}
	return -1, memoHits, nil
}

// endVerifySpan closes one cluster's verify span. Beside the attempt
// count, the outcome and the candidates the memo rejected (memo_hits)
// it reports the cell's verify plan: planned is 1 on the span whose
// verification built it, armed_rows the target rows it armed.
func endVerifySpan(sp obs.Span, attempts int, faultless int64, memoHits int, plan *verifyPlan, plannedBefore bool) {
	if !sp.Enabled() {
		return
	}
	sp.Int("attempts", int64(attempts))
	sp.Int("faultless", faultless)
	sp.Int("memo_hits", int64(memoHits))
	if plan.state == planArmed {
		planned := int64(0)
		if !plannedBefore {
			planned = 1
		}
		sp.Int("planned", planned)
		sp.Int("armed_rows", int64(len(plan.rows)))
	}
	sp.End()
}

// findCandidateTuples is Algorithm 3: every tuple t_j ≠ t with a value on
// A whose distance pattern against t satisfies the LHS of at least one
// RFDc in the cluster becomes a candidate, scored with the minimum mean
// LHS distance (Eq. 2) over the matching RFDcs. It sweeps every flat row
// of the view — the working relation plus, in the multi-dataset
// extension, the donor pool — in one RowPass over t's kept distance
// columns: a row is a candidate when its bit is set in the union of the
// rules' LHS match bitsets, and each matching rule's LHS distances are
// read from the columns, exact there because the rule matched, and
// summed in LHS order, so the score is View.DistMin's bit for bit. A
// cluster carrying a threshold outside engine.Exact takes the per-pair
// sweep. The candidates are appended to cands, in row order. The
// context is checked every engine.CheckEvery rows; an expired context
// makes the sweep return early with a partial list the caller must
// discard.
func findCandidateTuples(ctx context.Context, m *engine.Matcher, row, attr int, deps rfd.Set, cands []candidate) []candidate {
	p := m.Pass(deps)
	for h, dep := range deps {
		if !p.Rule(dep, -1, false, h) {
			return candidatesLiteral(ctx, m, row, attr, deps, cands)
		}
	}
	v := m.View()
	p.Scan(row, 0, v.Len(), false)
	for p.Next() {
		if ctx.Err() != nil {
			return cands
		}
		for h := range deps {
			p.And(h)
		}
		lo, u := p.Lo(), p.Union()
		for k := engine.NextBit(u, 0); k >= 0; k = engine.NextBit(u, k+1) {
			j := lo + k
			if v.IsNull(j, attr) {
				continue
			}
			dist, found := 0.0, false
			for h, dep := range deps {
				if !p.Has(h, k) {
					continue
				}
				sum := 0.0
				for _, c := range dep.LHS {
					sum += p.Dist(c.Attr, j)
				}
				if d := sum / float64(len(dep.LHS)); !found || d < dist {
					dist, found = d, true
				}
			}
			cands = append(cands, candidate{row: j, dist: dist})
		}
	}
	return cands
}

// candidatesLiteral is findCandidateTuples pair by pair, for clusters
// carrying a threshold outside engine.Exact.
func candidatesLiteral(ctx context.Context, m *engine.Matcher, row, attr int, deps rfd.Set, cands []candidate) []candidate {
	v := m.View()
	for j := 0; j < v.Len(); j++ {
		if j%engine.CheckEvery == 0 && ctx.Err() != nil {
			return cands
		}
		if j == row || v.IsNull(j, attr) {
			continue
		}
		if d, ok := m.DistMin(deps, row, j); ok {
			cands = append(cands, candidate{row: j, dist: d})
		}
	}
	return cands
}
