// Package discovery finds RFDcs holding on a relation instance. The paper
// delegates discovery to the dominance-based algorithm of Caruccio et al.
// [6], which has no public implementation; this package produces the same
// artifact class — RFDcs with conjunctive LHS distance constraints and a
// single-attribute RHS, discovered under a maximum-threshold limit
// (the paper's {3, 6, 9, 12, 15} sweep) — with a distance-pattern greedy
// lattice search:
//
//  1. The distance patterns of (a sample of) all tuple pairs are
//     materialized once.
//  2. For every RHS attribute A, RHS threshold β in the grid, and LHS
//     attribute set X up to MaxLHS attributes, the maximal per-attribute
//     LHS thresholds are derived greedily from the violating pairs
//     (d_A > β): every such pair must fail at least one LHS constraint,
//     and thresholds only ever decrease, so one pass over the violating
//     pairs suffices.
//  3. Candidates that end up vacuous (key-like: no sampled pair satisfies
//     the LHS) or dominated by a more general discovered RFDc are pruned.
//
// Both expensive steps run on runtime.GOMAXPROCS(0) workers with a
// deterministic merge, so the discovered set is byte-identical for every
// GOMAXPROCS: pattern materialization writes fixed-size bands of pairs
// in place and folds each into a lossless compact store (patterns.go),
// and the per-(RHS, β, LHS subset) candidate derivations fan out over an
// explicitly ordered job list whose results are collected by job index
// before the per-RHS dominance pruning runs (parallel.go).
package discovery

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// Config tunes discovery.
type Config struct {
	// MaxThreshold is the threshold limit: no discovered constraint (LHS
	// or RHS) exceeds it. It must be finite and non-negative. The paper
	// sweeps {3, 6, 9, 12, 15}.
	MaxThreshold float64
	// MaxLHS bounds the LHS attribute-set size. Zero means 2.
	MaxLHS int
	// RHSGrid lists the candidate RHS thresholds, in any order (discovery
	// sorts its own copy). Empty means the integers 0..MaxThreshold,
	// and then MaxThreshold may be at most 65,535.
	RHSGrid []float64
	// MaxPairs caps how many tuple pairs are sampled for pattern
	// materialization. Zero means all pairs. Sampling keeps discovery
	// tractable on large instances at the cost of soundness on the
	// unsampled pairs (discovered RFDcs are then approximate).
	MaxPairs int
	// Seed drives pair sampling. Ignored when all pairs fit.
	Seed int64
	// MinSupport is the minimum number of sampled pairs that must satisfy
	// a candidate's LHS for it to be kept (the non-key requirement).
	// Zero means 1.
	MinSupport int
	// KeepDominated disables the dominance pruning pass, yielding the raw
	// candidate set (closer to the paper's very large Σ sizes).
	KeepDominated bool
	// AttrLimits optionally caps the threshold per attribute (both LHS
	// and RHS), on top of MaxThreshold. Produce distribution-aware caps
	// with AdaptiveAttrLimits — the paper's Sec. 7 threshold-bounding
	// extension. Nil means MaxThreshold everywhere; otherwise the slice
	// must hold exactly one cap per attribute.
	AttrLimits []float64
	// Recorder receives discovery observability events (patterns
	// materialized, RFDcs emitted, discovery wall clock). Nil means
	// no-op.
	Recorder obs.Recorder
	// Tracer receives one RuleEmitted event per discovered RFDc, carrying
	// the rendered rule, its RHS threshold, and its pattern support (how
	// many sampled pairs satisfy the LHS — the generating minima of the
	// greedy search). Nil disables rule provenance.
	Tracer obs.Tracer
}

// limitFor returns the effective threshold cap for one attribute.
func (c *Config) limitFor(attr int) float64 {
	if c.AttrLimits == nil {
		return c.MaxThreshold
	}
	return math.Min(c.MaxThreshold, c.AttrLimits[attr])
}

// MaxDefaultGridThreshold is the largest MaxThreshold the default RHS
// grid accepts. That grid holds every integer 0..MaxThreshold and the
// search walks all of them for every (RHS, LHS subset), so its cost
// grows with the threshold whatever the data; 65,535 is 4,369 times the
// paper's largest limit (15). A larger limit needs an explicit RHSGrid.
const MaxDefaultGridThreshold = 65535

func (c *Config) normalize() error {
	if c.MaxThreshold < 0 || math.IsNaN(c.MaxThreshold) || math.IsInf(c.MaxThreshold, 0) {
		return fmt.Errorf("discovery: MaxThreshold must be finite and non-negative, got %v", c.MaxThreshold)
	}
	if c.MaxLHS == 0 {
		c.MaxLHS = 2
	}
	if c.MaxLHS < 0 {
		return fmt.Errorf("discovery: negative MaxLHS %d", c.MaxLHS)
	}
	if len(c.RHSGrid) == 0 {
		if c.MaxThreshold > MaxDefaultGridThreshold {
			return fmt.Errorf("discovery: MaxThreshold %v exceeds %d, the largest limit the default RHS grid (every integer 0..MaxThreshold) accepts; pass an explicit RHSGrid",
				c.MaxThreshold, MaxDefaultGridThreshold)
		}
		for b := 0.0; b <= c.MaxThreshold; b++ {
			c.RHSGrid = append(c.RHSGrid, b)
		}
	} else {
		c.RHSGrid = append([]float64(nil), c.RHSGrid...)
	}
	sort.Float64s(c.RHSGrid)
	if c.MinSupport == 0 {
		c.MinSupport = 1
	}
	return nil
}

// Discover returns the RFDcs found on the instance under the config.
// The result is deterministic for a fixed (instance, config, seed),
// independent of GOMAXPROCS.
func Discover(rel *dataset.Relation, cfg Config) (rfd.Set, error) {
	return DiscoverView(engine.Compile(rel), cfg)
}

// DiscoverContext is Discover with cooperative cancellation: both
// expensive phases (pattern materialization and the lattice search)
// carry checkpoints, and an expired context aborts the run with a typed
// engine.ErrCanceled. Discovery has no partial-result contract — a
// canceled run returns a nil set.
func DiscoverContext(ctx context.Context, rel *dataset.Relation, cfg Config) (rfd.Set, error) {
	return DiscoverViewContext(ctx, engine.Compile(rel), cfg)
}

// DiscoverView runs discovery over an already-compiled engine view, so
// callers that evaluate the same instance repeatedly (or concurrently)
// share one columnar form. View reads are safe for concurrent use, so
// any number of DiscoverView calls may run against the same view at
// once.
func DiscoverView(v *engine.View, cfg Config) (rfd.Set, error) {
	return DiscoverViewContext(context.Background(), v, cfg)
}

// DiscoverViewContext is DiscoverView with cooperative cancellation,
// under the DiscoverContext contract.
func DiscoverViewContext(ctx context.Context, v *engine.View, cfg Config) (rfd.Set, error) {
	return discover(ctx, v, cfg, runtime.GOMAXPROCS(0), bandPairs)
}

// discover is the one discovery pipeline: workers goroutines
// materialize the pairs band pairs at a time into the compact store,
// and the global lattice search reads only that store. Neither
// parameter changes the result; the in-package tests vary both.
func discover(ctx context.Context, v *engine.View, cfg Config, workers, band int) (rfd.Set, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m := v.Arity()
	if cfg.AttrLimits != nil && len(cfg.AttrLimits) != m {
		return nil, fmt.Errorf("discovery: AttrLimits has %d caps for %d attributes", len(cfg.AttrLimits), m)
	}
	if ctx.Err() != nil {
		return nil, engine.Canceled(ctx)
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.Nop{}
	}
	start := obs.Now(rec)
	if m < 2 || v.Len() < 2 {
		return nil, nil
	}
	rec.Add(obs.CtrDiscoveryWorkers, int64(workers))
	sp := obs.SpanFromContext(ctx)

	matStart := obs.Now(rec)
	matSpan := sp.Child("discovery_materialize")
	var pairs [][2]int
	if n := v.Len(); cfg.MaxPairs > 0 && cfg.MaxPairs < n*(n-1)/2 {
		pairs = samplePairs(n, cfg.MaxPairs, cfg.Seed)
	}
	st := materialize(ctx, v, pairs, workers, band, rec)
	npat := 0
	if st != nil {
		npat = st.n
	}
	if matSpan.Enabled() {
		matSpan.Int("patterns", int64(npat))
		matSpan.Int("workers", int64(workers))
		matSpan.End()
	}
	obs.Since(rec, obs.PhaseDiscoveryMaterialize, matStart)
	if ctx.Err() != nil {
		// A band may hold unmaterialized rows; never derive from it.
		return nil, engine.Canceled(ctx)
	}
	if npat == 0 {
		return nil, nil
	}
	rec.Add(obs.CtrDiscoveryPatterns, int64(npat))
	rec.Add(obs.CtrDiscoveryPatternPeakBytes, st.peakBytes)

	searchStart := obs.Now(rec)
	searchSpan := sp.Child("discovery_search")
	out := searchCandidates(ctx, st, &cfg, m, workers)
	if searchSpan.Enabled() {
		searchSpan.Int("rules", int64(len(out)))
		searchSpan.End()
	}
	obs.Since(rec, obs.PhaseDiscoverySearch, searchStart)
	if ctx.Err() != nil {
		// Jobs skipped by the cancellation checkpoints leave holes in the
		// result slab; the merged set would silently miss rules.
		return nil, engine.Canceled(ctx)
	}

	rec.Add(obs.CtrDiscoveryRFDs, int64(len(out)))
	if cfg.Tracer != nil && cfg.Tracer.Enabled() {
		emitRuleProvenance(cfg.Tracer, v.Relation().Schema(), st, out)
	}
	obs.Since(rec, obs.PhaseDiscovery, start)
	return out, nil
}

// emitRuleProvenance reports each surviving RFDc with its pattern
// support, recomputed once per rule over the sampled patterns. It runs
// strictly after the deterministic merge, so the event order is the set
// order regardless of worker count.
func emitRuleProvenance(t obs.Tracer, schema *dataset.Schema, st *patStore, out rfd.Set) {
	for _, dep := range out {
		lhs := make([]int, len(dep.LHS))
		th := make([]float64, len(dep.LHS))
		for i, c := range dep.LHS {
			lhs[i], th[i] = c.Attr, c.Threshold
		}
		t.EmitEvent(obs.RuleEmitted(dep.RHS.Attr, dep.Format(schema),
			dep.RHS.Threshold, support(st, lhs, th)))
	}
}

// samplePairs draws maxPairs distinct (i, j) pairs without replacement,
// i < j, in rng draw order — exactly the sequence the serial sampler
// has always produced for a given seed. Pair selection is serial (one
// rng sequence), so the sampled list — and hence the pattern order — is
// independent of the worker count; only its materialization is
// chunked.
func samplePairs(n, maxPairs int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool, maxPairs)
	out := make([][2]int, 0, maxPairs)
	for len(out) < maxPairs {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		key := [2]int{i, j}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, key)
	}
	return out
}

// fits reports whether pattern k satisfies every LHS constraint: each
// distance is present and at most its threshold in th (len(lhs)).
func fits(st *patStore, k int, lhs []int, th []float64) bool {
	for i, a := range lhs {
		if d := st.at(k, a); distance.IsMissing(d) || d > th[i] {
			return false
		}
	}
	return true
}

// cutPattern folds one violating pattern that satisfies the running
// threshold vector th (len(lhs)) into it: the pattern must fail at
// least one LHS constraint, and the cheapest cut (the attribute with
// the largest distance) is taken. It returns false when no threshold
// vector works (the pair is identical on every LHS attribute).
//
// Because thresholds only ever decrease, a pattern that fails the
// current constraints also fails all later ones, so a single pass over
// the violating patterns, cutting each one that still fits, is exact —
// and the fold can be resumed: feeding the patterns of order[prev:cut]
// for descending β yields, at each boundary, exactly the vector a
// from-scratch pass over order[:cut] would produce (see deriveSubset).
func cutPattern(st *patStore, idx int, lhs []int, th []float64) bool {
	// Cut the pair on the attribute with the largest distance — the
	// cheapest cut, keeping the other thresholds as loose as possible.
	best, bestD := -1, -1.0
	for i, a := range lhs {
		if d := st.at(idx, a); d > bestD {
			best, bestD = i, d
		}
	}
	if bestD <= 0 {
		return false // identical on all LHS attributes yet violating
	}
	// Largest integer grid value strictly below bestD.
	next := math.Ceil(bestD) - 1
	if next >= bestD { // bestD was integral
		next = bestD - 1
	}
	if next < 0 {
		return false
	}
	th[best] = next
	return true
}

// support counts the sampled patterns satisfying every LHS constraint —
// the witness count for the non-key requirement.
func support(st *patStore, lhs []int, th []float64) int {
	count := 0
	for k := 0; k < st.n; k++ {
		if fits(st, k, lhs, th) {
			count++
		}
	}
	return count
}

// enumerateSubsets lists the non-empty subsets of pool with at most k
// elements, in deterministic order (singletons first, then pairs, ...).
func enumerateSubsets(pool []int, k int) [][]int {
	var out [][]int
	var cur []int
	var rec func(start, size int)
	rec = func(start, size int) {
		for i := start; i < len(pool); i++ {
			cur = append(cur, pool[i])
			out = append(out, append([]int(nil), cur...))
			if size+1 < k {
				rec(i+1, size+1)
			}
			cur = cur[:len(cur)-1]
		}
	}
	if k >= 1 {
		rec(0, 0)
	}
	// Order by size, then lexicographically; the recursion above yields
	// depth-first order, so re-sort for by-size determinism.
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) < len(out[b])
		}
		for i := range out[a] {
			if out[a][i] != out[b][i] {
				return out[a][i] < out[b][i]
			}
		}
		return false
	})
	return out
}
