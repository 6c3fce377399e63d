package discovery

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/rfd"
)

// RevalidateRows repairs Σ against every tuple pair a set of changed
// rows introduces. It is the Σ-correctness half of a live-session delta
// and of each Maintainer arrival:
//
//   - deletes need no repair (every RFDc holding on an instance holds
//     on any subset — dropping pairs cannot create a violation), so
//     callers pass only the inserted and updated rows;
//   - an inserted or updated row can witness new violations against
//     every other row, so each changed row is checked against the whole
//     instance; a pair of two changed rows is checked once (by its
//     lower-numbered member's sweep);
//   - a repair is discovery's greedy cut (repairAgainst): the LHS
//     threshold with the largest pair distance is tightened just below
//     it, or the dependency is dropped when the pair is identical on the
//     whole LHS. Tightening is monotone, so the returned set holds on
//     the entire new instance, not just the checked pairs.
//
// Each changed row's sweep runs on its distance columns (an
// engine.RowPass): a rule's LHS match bitsets ANDed with its RHS breach
// bitset give a superset of the pairs it must be repaired against —
// tightening only shrinks the match set — and only those pairs are
// re-checked, in row order, with the exact pattern against the rule as
// already tightened. Rules are repaired independently of one another,
// so Σ, its order and the counts are those of the literal sweep over
// every (row, pair, rule). The matcher's ladders are Σ's thresholds as
// passed in; one a repair has tightened is compared row by row. A sweep
// whose rules carry a threshold outside engine.Exact runs that literal
// sweep.
//
// rows are flat indices into v (deduplicated here). Σ is deep-copied;
// the caller's set is never mutated.
func RevalidateRows(v *engine.View, sigma rfd.Set, rows []int) (out rfd.Set, dropped, tightened int) {
	cp := sigma.Clone()
	if len(rows) == 0 || len(cp) == 0 {
		return cp, 0, 0
	}
	n := v.Len()
	changed := make([]bool, n)
	order := append([]int(nil), rows...)
	sort.Ints(order)
	order = order[:uniqInts(order)]
	for _, r := range order {
		changed[r] = true
	}

	m := v.Matcher()
	defer m.Release()
	m.Keep(cp)
	one := distance.NewPattern(v.Arity())
	for _, r := range order {
		if len(cp) == 0 {
			break
		}
		pass := m.Pass(cp)
		literal := false
		for k, dep := range cp {
			if !pass.Rule(dep, -1, true, k) {
				literal = true
				break
			}
		}
		if literal {
			for j := 0; j < n; j++ {
				if j == r || (changed[j] && j < r) {
					continue
				}
				m.PatternInto(one, r, j)
				for k := range cp {
					if cp[k] != nil {
						d, t := repairAt(cp, k, one)
						dropped, tightened = dropped+d, tightened+t
					}
				}
			}
		} else {
			pass.Scan(r, 0, n, false)
			for pass.Next() {
				lo := pass.Lo()
				for h := 0; h < pass.Rules(); h++ {
					k := pass.Tag(h)
					if cp[k] == nil {
						continue
					}
				walk:
					for wi, w := range pass.And(h) {
						for ; w != 0; w &= w - 1 {
							j := lo + wi<<6 + bits.TrailingZeros64(w)
							if changed[j] && j < r {
								continue
							}
							m.PatternInto(one, r, j)
							d, t := repairAt(cp, k, one)
							dropped, tightened = dropped+d, tightened+t
							if d > 0 {
								break walk
							}
						}
					}
				}
			}
		}
		kept := cp[:0]
		for _, dep := range cp {
			if dep != nil {
				kept = append(kept, dep)
			}
		}
		cp = kept
	}
	return cp, dropped, tightened
}

// repairAt repairs cp[k] in place against the pair behind pattern p,
// setting it to nil when it is dropped. It returns the drop and
// tightening it applied (0 or 1 each).
func repairAt(cp rfd.Set, k int, p distance.Pattern) (dropped, tightened int) {
	repaired, ok := repairAgainst(cp[k], p)
	switch {
	case !ok:
		cp[k] = nil
		return 1, 0
	case repaired != cp[k]:
		cp[k] = repaired
		return 0, 1
	}
	return 0, 0
}

// uniqInts compacts a sorted slice in place, returning the new length.
func uniqInts(s []int) int {
	if len(s) == 0 {
		return 0
	}
	w := 1
	for _, x := range s[1:] {
		if x != s[w-1] {
			s[w] = x
			w++
		}
	}
	return w
}

// repairAgainst returns the dependency unchanged when the pattern does
// not witness a violation; otherwise it tightens the LHS threshold on
// the attribute with the largest distance so the pair no longer
// satisfies the premise. The second result is false when no repair
// exists (the pair is identical on every LHS attribute).
func repairAgainst(dep *rfd.RFD, p distance.Pattern) (*rfd.RFD, bool) {
	if !dep.ViolatedBy(p) {
		return dep, true
	}
	best, bestD := -1, -1.0
	for i, c := range dep.LHS {
		if d := p[c.Attr]; d > bestD {
			best, bestD = i, d
		}
	}
	if bestD <= 0 {
		return nil, false
	}
	next := math.Ceil(bestD) - 1
	if next >= bestD {
		next = bestD - 1
	}
	if next < 0 {
		return nil, false
	}
	lhs := append([]rfd.Constraint(nil), dep.LHS...)
	lhs[best].Threshold = next
	return rfd.MustNew(lhs, dep.RHS), true
}
