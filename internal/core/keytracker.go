package core

import (
	"context"

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
}

// newKeyTracker computes the initial key status of every RFDc with one
// pass per target row i over the rows after it: target×target pairs
// plus target×donor pairs (donor×donor pairs are never absorbed). An
// expired context stops the scan early; the caller must then abandon
// the (incomplete) tracker.
func newKeyTracker(ctx context.Context, m *engine.Matcher, sigma rfd.Set) *keyTracker {
	kt := &keyTracker{m: m, sigma: sigma, isKey: make([]bool, len(sigma)), keys: len(sigma)}
	for i := range kt.isKey {
		kt.isKey[i] = true
	}
	v := m.View()
	for i := 0; i < v.TargetLen() && kt.keys > 0; i++ {
		// A pass is O(Len) work, so one check per query row keeps
		// cancellation latency bounded at a single row scan.
		if ctx.Err() != nil {
			return kt
		}
		kt.absorb(i, i+1, v.Len(), -1)
	}
	return kt
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
