package core

import (
	"context"
	"math"
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
// literal scan's. The buffers are reused across the cells of a run; one
// plan belongs to one run goroutine.
type verifyPlan struct {
	row, attr int
	state     planState
	lhs       []lhsTerm // relevant φ with A on the LHS: RowPass rules 0..
	rhs       rfd.Set   // VerifyBothSides: relevant φ with RHS A: the rules after
	rows      []armedRow
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

type planState uint8

const (
	planPending planState = iota // the cell has not verified yet
	planArmed                    // rows hold the cell's plan
	planEmpty                    // nothing to re-check: every candidate passes
	planLiteral                  // a threshold outside engine.Exact: scan each candidate
)

// reset starts a new missing cell; the plan is built by the cell's
// first untraced verification.
func (p *verifyPlan) reset(row, attr int) {
	p.row, p.attr, p.state = row, attr, planPending
}

// faultless is IS_FAULTLESS for the value currently tentatively in
// t[A]. Under an expired context it returns false, which the caller
// discards.
func (p *verifyPlan) faultless(ctx context.Context, im *Imputer, m *engine.Matcher, sigmaPrime rfd.Set) bool {
	if p.state == planPending && !p.build(ctx, im, m, sigmaPrime) {
		return false
	}
	switch p.state {
	case planEmpty:
		return true
	case planLiteral:
		ok, _, _ := im.isFaultlessWitness(ctx, m, p.row, p.attr, sigmaPrime)
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

// build selects the relevant dependencies and arms the target rows. It
// returns false, leaving the plan pending, when the context expired.
func (p *verifyPlan) build(ctx context.Context, im *Imputer, m *engine.Matcher, sigmaPrime rfd.Set) bool {
	p.lhs, p.rhs = slices.Grow(p.lhs[:0], len(sigmaPrime)), slices.Grow(p.rhs[:0], len(sigmaPrime))
	if im.opts.Verify != VerifyOff {
		for _, dep := range sigmaPrime {
			for _, c := range dep.LHS {
				if c.Attr == p.attr {
					p.lhs = append(p.lhs, lhsTerm{dep: dep, th: c.Threshold})
				}
			}
			if im.opts.Verify == VerifyBothSides && dep.RHS.Attr == p.attr {
				p.rhs = append(p.rhs, dep)
			}
		}
	}
	if len(p.lhs) == 0 && len(p.rhs) == 0 {
		p.state = planEmpty
		return true
	}
	// The rest of each φ goes to the RowPass; θ_A is compared with
	// Within per candidate, so it too must be in the exact range.
	pass := m.Pass(sigmaPrime)
	for k, l := range p.lhs {
		if !engine.Exact(l.th) || !pass.Rule(l.dep, p.attr, true, k) {
			p.state = planLiteral
			return true
		}
	}
	for k, dep := range p.rhs {
		if !pass.Rule(dep, -1, false, k) {
			p.state = planLiteral
			return true
		}
	}
	v := m.View()
	attr := p.attr
	n := v.TargetLen()
	p.rows = slices.Grow(p.rows[:0], n)
	pass.Scan(p.row, 0, n, false)
	for pass.Next() {
		if ctx.Err() != nil {
			return false
		}
		for h := 0; h < pass.Rules(); h++ {
			pass.And(h)
		}
		lo, armed := pass.Lo(), pass.Union()
		for k := engine.NextBit(armed, 0); k >= 0; k = engine.NextBit(armed, k+1) {
			i := lo + k
			if v.IsNull(i, attr) {
				// A null t_i[A] fails every A term, whatever t[A] holds.
				continue
			}
			near := math.Inf(-1)
			for h, l := range p.lhs {
				if l.th > near && pass.Has(h, k) {
					near = l.th
				}
			}
			far := math.Inf(1)
			for h, dep := range p.rhs {
				if th := dep.RHS.Threshold; th < far && pass.Has(len(p.lhs)+h, k) {
					far = th
				}
			}
			if near >= 0 || !math.IsInf(far, 1) {
				p.rows = append(p.rows, armedRow{i: i, near: near, far: far})
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
