package core

import (
	"context"
	"slices"

	"repro/internal/engine"
	"repro/internal/rfd"
)

// keyTracker maintains the key / non-key status of every RFDc in Σ as the
// instance is imputed (Algorithm 1 line 14 done incrementally).
//
// Key status is monotone under imputation: filling a cell can only turn a
// "_" pattern component into a value, which can newly satisfy an LHS but
// never un-satisfy one, so a non-key RFDc stays non-key. After imputing
// cell (row, attr) only the still-key RFDcs with attr on their LHS can
// flip, and only via pairs involving that row — which keeps the
// re-evaluation far below the naive O(|Σ|·n²) full rescan.
//
// The tracker evaluates pairs through the engine view, whose flat rows
// cover the target instance and, in the multi-dataset extension, the
// donor pool: a dependency is useful — non-key for our purposes — as
// soon as some pair of one target tuple and any tuple in the search
// space satisfies its LHS. Every question it asks is about one query
// row against a range of rows, so it answers it with the matcher's
// RowPass: a still-key RFDc flips once the AND of its LHS match bitsets
// is non-zero.
type keyTracker struct {
	m     *engine.Matcher // the run goroutine's matcher
	sigma rfd.Set
	isKey []bool
	keys  int // number of true entries in isKey
	// rules is the selection built from the current key status.
	rules ruleCache
}

// init computes the initial key status of every RFDc with one pass per
// target row i over the rows after it: target×target pairs plus
// target×donor pairs (donor×donor pairs are never absorbed). It reuses
// kt's buffers and empties its rule cache. An expired context stops the
// scan early; the caller must then abandon the (incomplete) tracker.
func (kt *keyTracker) init(ctx context.Context, m *engine.Matcher, sigma rfd.Set) {
	kt.m, kt.sigma, kt.keys = m, sigma, len(sigma)
	kt.isKey = slices.Grow(kt.isKey[:0], len(sigma))[:len(sigma)]
	for i := range kt.isKey {
		kt.isKey[i] = true
	}
	v := m.View()
	kt.rules.reset(v.Arity())
	for i := 0; i < v.TargetLen() && kt.keys > 0; i++ {
		// A pass is O(Len) work, so one check per query row keeps
		// cancellation latency bounded at a single row scan.
		if ctx.Err() != nil {
			return
		}
		kt.absorb(i, i+1, v.Len(), -1)
	}
}

// absorb marks non-key every still-key RFDc — only those with attr on
// the LHS when attr >= 0 — whose LHS some pair (q, j) satisfies, j in
// [lo, hi) and j ≠ q. It stops as soon as none of them is left a key.
func (kt *keyTracker) absorb(q, lo, hi, attr int) {
	p := kt.m.Pass(kt.sigma)
	live := 0
	for s, dep := range kt.sigma {
		if !kt.isKey[s] || (attr >= 0 && !dep.HasLHSAttr(attr)) {
			continue
		}
		if !p.Rule(dep, -1, false, s) {
			kt.absorbLiteral(q, lo, hi, attr)
			return
		}
		live++
	}
	if live == 0 {
		return
	}
	p.Scan(q, lo, hi, true)
	for live > 0 && p.Next() {
		for h := 0; h < p.Rules(); h++ {
			if s := p.Tag(h); kt.isKey[s] && engine.Any(p.And(h)) {
				kt.isKey[s] = false
				kt.keys--
				live--
			}
		}
	}
}

// absorbLiteral is absorb pair by pair, for rule sets carrying a
// threshold outside engine.Exact.
func (kt *keyTracker) absorbLiteral(q, lo, hi, attr int) {
	for j := lo; j < hi && kt.keys > 0; j++ {
		if j == q {
			continue
		}
		for s, dep := range kt.sigma {
			if kt.isKey[s] && (attr < 0 || dep.HasLHSAttr(attr)) && kt.m.MatchesLHS(dep, q, j) {
				kt.isKey[s] = false
				kt.keys--
			}
		}
	}
}

// afterImpute re-evaluates key status after cell (row, attr) gained a
// value: pairs (row, j) are re-tested against the still-key RFDcs that
// constrain attr on their LHS.
func (kt *keyTracker) afterImpute(row, attr int) {
	if kt.keys > 0 {
		kt.absorb(row, 0, kt.m.View().Len(), attr)
	}
}

// absorbRow updates key status with the pairs a newly appended row
// introduces.
func (kt *keyTracker) absorbRow(row int) {
	if kt.keys > 0 {
		kt.absorb(row, 0, kt.m.View().Len(), -1)
	}
}

// nonKeys returns the current Σ' in Σ order.
func (kt *keyTracker) nonKeys() rfd.Set {
	out := make(rfd.Set, 0, len(kt.sigma)-kt.keys)
	for s, dep := range kt.sigma {
		if !kt.isKey[s] {
			out = append(out, dep)
		}
	}
	return out
}

// rulesFor returns what a missing cell on attr needs from the current
// Σ'. With fresh — a traced cell — they are built anew from the key
// status, as the literal path the cache is tested against; otherwise
// they come from the cache, built at most once per key status (see
// ruleCache).
func (kt *keyTracker) rulesFor(im *Imputer, attr int, fresh bool) *attrRules {
	if fresh {
		r := &attrRules{}
		r.build(im, kt.nonKeys(), attr)
		return r
	}
	c := &kt.rules
	if c.keys != kt.keys {
		c.keys, c.sigma = kt.keys, kt.nonKeys()
		for a := range c.attrs {
			c.attrs[a].built = false
		}
	}
	r := &c.attrs[attr]
	if !r.built {
		r.build(im, c.sigma, attr)
	}
	return r
}

// forget drops every reference the tracker holds into its run (matcher,
// Σ and the rules built from it), keeping the buffers.
func (kt *keyTracker) forget() {
	kt.m, kt.sigma = nil, nil
	c := &kt.rules
	c.sigma = nil
	for a := range c.attrs {
		c.attrs[a].forget()
	}
}

// ruleCache is Algorithm 1's RFDc selection (lines 7-10) for one key
// tracker: Σ', and per attribute A the attrRules over it, built when a
// cell on A first needs them. Key status only ever flips from key to
// non-key, so kt.keys names Σ' for the tracker's whole life: while it
// stays put, every cell on A reuses A's rules, and when a flip moves
// it, every attribute is dropped. The buffers are reused when the
// tracker is.
type ruleCache struct {
	keys  int // kt.keys when sigma was selected; -1 before the first
	sigma rfd.Set
	attrs []attrRules // indexed by attribute
}

// reset empties the cache for a view of the given arity.
func (c *ruleCache) reset(arity int) {
	c.keys = -1
	c.attrs = slices.Grow(c.attrs[:0], arity)[:arity]
}

// attrRules is what a missing cell on attribute A needs from Σ': Λ_Σ'_A
// under the run's ordering and clustering options, and the terms of
// IS_FAULTLESS for A.
type attrRules struct {
	built    bool
	sigma    rfd.Set // Σ'
	clusters []rfd.Cluster
	terms    verifyTerms
}

// build fills r with attr's rules under sigmaPrime.
func (r *attrRules) build(im *Imputer, sigmaPrime rfd.Set, attr int) {
	r.sigma = sigmaPrime
	r.clusters = im.clustersFor(sigmaPrime, attr)
	r.terms.build(im.opts.Verify, sigmaPrime, attr)
	r.built = true
}

// forget drops r's references to dependencies, keeping the buffers.
func (r *attrRules) forget() {
	r.built, r.sigma, r.clusters = false, nil, nil
	clear(r.terms.lhs[:cap(r.terms.lhs)])
	clear(r.terms.rhs[:cap(r.terms.rhs)])
}
