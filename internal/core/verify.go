package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"

	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// isFaultlessWitness is Algorithm 4 as the paper states it: after
// tentatively imputing t[A], check that no tuple pair (t, t_i) witnesses
// a violation of a dependency that constrains A. Under VerifyLHS (the
// literal Algorithm 4) only RFDcs with A on the LHS are re-checked;
// VerifyBothSides also re-checks RFDcs with A as RHS attribute, giving
// the full Definition 4.3 guarantee. On rejection it also returns the
// violated dependency and the row of the witness tuple t_i — the two
// facts a decision trace needs to justify a CandidateRejected.
// Verification scans only the target rows of the view: semantic
// consistency per Definition 4.3 concerns the target instance, never the
// donor pool.
//
// Traced cells verify through this scan; every other cell goes through
// a verifyPlan, which reaches the same verdict.
func (im *Imputer) isFaultlessWitness(ctx context.Context, m *engine.Matcher, row, attr int, sigmaPrime rfd.Set) (bool, *rfd.RFD, int) {
	if im.opts.Verify == VerifyOff {
		return true, nil, -1
	}
	relevant := im.relevantForVerify(sigmaPrime, attr)
	if len(relevant) == 0 {
		return true, nil, -1
	}
	for i := 0; i < m.View().TargetLen(); i++ {
		if i%engine.CheckEvery == 0 && ctx.Err() != nil {
			// No verdict under an expired context; the caller re-checks
			// ctx and discards whatever this returns.
			return false, nil, -1
		}
		if i == row {
			continue
		}
		for _, dep := range relevant {
			if m.Violates(dep, row, i) {
				return false, dep, i
			}
		}
	}
	return true, nil, -1
}

// relevantForVerify selects the dependencies IS_FAULTLESS must re-check
// after imputing attr, per the configured verification mode.
func (im *Imputer) relevantForVerify(sigmaPrime rfd.Set, attr int) rfd.Set {
	var relevant rfd.Set
	for _, dep := range sigmaPrime {
		if dep.HasLHSAttr(attr) || (im.opts.Verify == VerifyBothSides && dep.RHS.Attr == attr) {
			relevant = append(relevant, dep)
		}
	}
	return relevant
}

// verifyPlan is IS_FAULTLESS compiled once per missing cell t[A].
// Algorithm 2 tries a cell's ranked candidates one at a time, yet Σ' and
// every cell except t[A] stay fixed for the whole cell. A candidate v is
// rejected iff some target row t_i ≠ t and relevant φ give
// Violates(φ, t, t_i), and Violates is a conjunction in which only A's
// term depends on v:
//
//   - A on φ's LHS: the other LHS constraints and the RHS breach are
//     fixed, so the rows where they hold are found once. Within is
//     monotone in its bound, so the A terms of all such φ for one row
//     collapse to Within(A, t, t_i, θ_near), θ_near the largest θ_A.
//   - A as φ's RHS (VerifyBothSides): the LHS is fixed, and "distance
//     present and > θ" over the φ whose LHS holds collapses to one test
//     against θ_far, the smallest θ_RHS.
//
// The fixed parts are found with the run matcher's RowPass over t's
// distance columns: for A on the LHS, the AND of the other LHS match
// bitsets and the RHS breach bitset; for A as RHS, the AND of the LHS
// match bitsets. A's own column is never needed. The plan records the
// armed rows (those with at least one bound) and their bounds; a
// candidate then costs one or two checks per armed row, through the
// same Matcher and kernels the scan uses, so the verdict is the
// literal scan's.
//
// Since the verdict depends on v alone, the plan also remembers the
// values it rejected in this cell (memo): a candidate carrying one of
// them is rejected without being written or checked. The buffers are
// reused across the cells of a run; one plan belongs to one run
// goroutine.
type verifyPlan struct {
	row, attr int
	state     planState
	rules     *attrRules // the cell's Σ' and verify terms
	rows      []armedRow
	memo      map[engine.ValueKey]struct{} // values rejected in this cell
}

// armedRow is one target row that can witness a violation, with its
// bounds: θ_near, or -Inf when none; θ_far, or +Inf when none.
type armedRow struct {
	i         int
	near, far float64
}

// lhsTerm is one relevant dependency with A on its LHS and A's bound.
type lhsTerm struct {
	dep *rfd.RFD
	th  float64
}

// verifyTerms are the dependencies IS_FAULTLESS re-checks after imputing
// one attribute A under one Σ', in the order a plan registers them as
// RowPass rules: lhs (A on the LHS) by θ_A descending, then rhs
// (VerifyBothSides: RHS A) by θ_RHS ascending with NaN last. Ties keep
// Σ' order. near groups the lhs rules of equal θ_A, largest first, and
// far the rhs rules of equal θ_RHS, smallest first; an RHS θ that is
// NaN or +Inf never lowers a far bound, so its rules are in no group.
type verifyTerms struct {
	lhs       []lhsTerm
	rhs       rfd.Set
	near, far []boundGroup
}

// boundGroup is the RowPass rules [lo, hi) that share the bound th.
type boundGroup struct {
	th     float64
	lo, hi int
}

// build selects the terms for attr under sigmaPrime and mode.
func (t *verifyTerms) build(mode VerifyMode, sigmaPrime rfd.Set, attr int) {
	t.lhs, t.rhs = t.lhs[:0], t.rhs[:0]
	if mode != VerifyOff {
		for _, dep := range sigmaPrime {
			for _, c := range dep.LHS {
				if c.Attr == attr {
					t.lhs = append(t.lhs, lhsTerm{dep: dep, th: c.Threshold})
				}
			}
			if mode == VerifyBothSides && dep.RHS.Attr == attr {
				t.rhs = append(t.rhs, dep)
			}
		}
	}
	slices.SortStableFunc(t.lhs, func(a, b lhsTerm) int { return cmp.Compare(b.th, a.th) })
	slices.SortStableFunc(t.rhs, func(a, b *rfd.RFD) int {
		return cmp.Compare(nanLast(a.RHS.Threshold), nanLast(b.RHS.Threshold))
	})
	t.near = appendGroups(t.near[:0], len(t.lhs), 0, func(k int) float64 { return t.lhs[k].th })
	finite := len(t.rhs)
	for finite > 0 && !(t.rhs[finite-1].RHS.Threshold < math.Inf(1)) {
		finite--
	}
	t.far = appendGroups(t.far[:0], finite, len(t.lhs), func(k int) float64 { return t.rhs[k].RHS.Threshold })
}

// nanLast orders NaN with +Inf, after every other threshold.
func nanLast(th float64) float64 {
	if th != th {
		return math.Inf(1)
	}
	return th
}

// appendGroups appends a group per run of equal bounds th(0..n-1), as
// the rules off+k.
func appendGroups(groups []boundGroup, n, off int, th func(k int) float64) []boundGroup {
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && th(hi) == th(lo) {
			hi++
		}
		groups = append(groups, boundGroup{th: th(lo), lo: off + lo, hi: off + hi})
		lo = hi
	}
	return groups
}

type planState uint8

const (
	planPending planState = iota // the cell has not verified yet
	planArmed                    // rows hold the cell's plan
	planEmpty                    // nothing to re-check: every candidate passes
	planLiteral                  // a threshold outside engine.Exact: scan each candidate
)

// reset starts a new missing cell under rules, with an empty memo; the
// plan is built by the cell's first untraced verification. Every
// cluster of a cell shares its Σ' and instance, so a value rejected in
// one cluster stays rejected in the next, but not in another cell.
func (p *verifyPlan) reset(row, attr int, rules *attrRules) {
	p.row, p.attr, p.state, p.rules = row, attr, planPending, rules
	clear(p.memo)
}

// rejected reports whether IS_FAULTLESS already rejected the value k in
// this cell.
func (p *verifyPlan) rejected(k engine.ValueKey) bool {
	_, ok := p.memo[k]
	return ok
}

// reject records that IS_FAULTLESS rejected the value k in this cell.
func (p *verifyPlan) reject(k engine.ValueKey) {
	if p.memo == nil {
		p.memo = make(map[engine.ValueKey]struct{})
	}
	p.memo[k] = struct{}{}
}

// faultless is IS_FAULTLESS for the value currently tentatively in
// t[A]. Under an expired context it returns false, which the caller
// discards.
func (p *verifyPlan) faultless(ctx context.Context, im *Imputer, m *engine.Matcher) bool {
	if p.state == planPending && !p.build(ctx, im, m) {
		return false
	}
	switch p.state {
	case planEmpty:
		return true
	case planLiteral:
		ok, _, _ := im.isFaultlessWitness(ctx, m, p.row, p.attr, p.rules.sigma)
		return ok
	}
	for k, a := range p.rows {
		if k%engine.CheckEvery == 0 && ctx.Err() != nil {
			return false
		}
		i := a.i
		if near := a.near; near >= 0 && m.Within(p.attr, p.row, i, near) {
			return false
		}
		if far := a.far; !math.IsInf(far, 1) {
			if d := m.Distance(p.attr, p.row, i); !distance.IsMissing(d) && d > far {
				return false
			}
		}
	}
	return true
}

// build registers the cell's terms and arms the target rows. It
// returns false, leaving the plan pending, when the context expired.
func (p *verifyPlan) build(ctx context.Context, im *Imputer, m *engine.Matcher) bool {
	t := &p.rules.terms
	if len(t.lhs) == 0 && len(t.rhs) == 0 {
		p.state = planEmpty
		return true
	}
	// The rest of each φ goes to the RowPass; θ_A is compared with
	// Within per candidate, so it too must be in the exact range.
	pass := m.Pass(p.rules.sigma)
	for k, l := range t.lhs {
		if !engine.Exact(l.th) || !pass.Rule(l.dep, p.attr, true, k) {
			p.state = planLiteral
			return true
		}
	}
	for k, dep := range t.rhs {
		if !pass.Rule(dep, -1, false, len(t.lhs)+k) {
			p.state = planLiteral
			return true
		}
	}
	v := m.View()
	attr := p.attr
	n := v.TargetLen()
	p.rows = slices.Grow(p.rows[:0], n)
	var near, far [64]float64
	pass.Scan(p.row, 0, n, false)
	for pass.Next() {
		if ctx.Err() != nil {
			return false
		}
		for h := 0; h < pass.Rules(); h++ {
			pass.And(h)
		}
		lo := pass.Lo()
		for w := range pass.Set(0) {
			hasNear := boundWord(pass, t.near, w, &near)
			hasFar := boundWord(pass, t.far, w, &far)
			for x := hasNear | hasFar; x != 0; x &= x - 1 {
				b := bits.TrailingZeros64(x)
				i := lo + w<<6 + b
				if v.IsNull(i, attr) {
					// A null t_i[A] fails every A term, whatever t[A] holds.
					continue
				}
				a := armedRow{i: i, near: math.Inf(-1), far: math.Inf(1)}
				if hasNear>>b&1 != 0 {
					a.near = near[b]
				}
				if hasFar>>b&1 != 0 {
					a.far = far[b]
				}
				p.rows = append(p.rows, a)
			}
		}
	}
	p.state = planArmed
	if rec := im.opts.recorder(); rec.Enabled() {
		rec.Add(obs.CtrVerifyPlans, 1)
		rec.Add(obs.CtrVerifyArmedRows, int64(len(p.rows)))
	}
	return true
}

// boundWord gives each row of word w of the block the bound of the
// first group, in groups' order, whose OR of rule bitsets holds the
// row, and returns the rows that got one.
func boundWord(pass *engine.RowPass, groups []boundGroup, w int, th *[64]float64) uint64 {
	var got uint64
	for _, g := range groups {
		var x uint64
		for h := g.lo; h < g.hi; h++ {
			x |= pass.Set(h)[w]
		}
		x &^= got
		got |= x
		for ; x != 0; x &= x - 1 {
			th[bits.TrailingZeros64(x)] = g.th
		}
	}
	return got
}
