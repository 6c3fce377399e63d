package engine

import (
	"slices"
	"sync"

	"repro/internal/distance"
	"repro/internal/rfd"
)

// Matcher binds a View to one per-worker kernel arena
// (distance.Scratch), making every pairwise evaluation allocation-free:
// the Myers pattern-equality table, the banded-DP row, and the rune
// decode buffers all live in the arena and are reused across calls.
//
// A Matcher is NOT safe for concurrent use — the arena is mutable
// worker state. Each goroutine that scans a view takes its own with
// View.Matcher(); the View's own methods remain safe for concurrent
// reads and borrow pooled arenas instead.
//
// Every method mirrors the View method of the same name bit-for-bit:
// the arena changes where the kernel's scratch memory lives, never what
// it computes.
type Matcher struct {
	v  *View
	sc *distance.Scratch

	// Column's per-call memo (memoSize slots): key is the call's
	// generation in the high half and the interned id in the low half;
	// d is the capped distance, -1 above the limit.
	memoGen uint32
	memoKey [memoSize]uint64
	memoD   [memoSize]int32
	// pass is the RowPass scratch, reused from pass to pass.
	pass RowPass
	// kept holds one query row's distance column per attribute (see
	// keptCol); rungs are Keep's thresholds per attribute, ascending,
	// and below[a][k] counts a's rungs under k-1, where the search for
	// the first rung at least a distance in (k-1, k] can start.
	kept  []keptCol
	rungs [][]float64
	below [][]int32
	first []uint64 // ladder scratch: one word per rung
}

// maxBelow bounds the integer distances a below table covers; a larger
// distance starts its rung search at the table's last entry.
const maxBelow = 64

// matchers is the pool of released Matchers: their arenas, pass
// buffers and kept columns serve the next run, so a steady stream of
// runs allocates none of them. It is a free list rather than a
// sync.Pool, which every collection empties and whose refill
// allocates; it keeps at most maxFree matchers.
var matchers struct {
	sync.Mutex
	free []*Matcher
}

const maxFree = 64

// Matcher returns a single-goroutine evaluator over the view, from the
// pool when it holds one. It starts with no kept column and no rung,
// so nothing computed over an earlier view can be read. Release
// returns it; a Matcher that is not released is garbage like any
// other.
func (v *View) Matcher() *Matcher {
	var m *Matcher
	matchers.Lock()
	if n := len(matchers.free); n > 0 {
		m = matchers.free[n-1]
		matchers.free[n-1] = nil
		matchers.free = matchers.free[:n-1]
	}
	matchers.Unlock()
	if m == nil {
		m = &Matcher{sc: distance.NewScratch()}
	}
	m.v = v
	m.forget()
	return m
}

// Release returns the matcher, with its buffers, to the pool. The
// caller must not use it afterwards.
func (m *Matcher) Release() {
	m.v = nil
	matchers.Lock()
	if len(matchers.free) < maxFree {
		matchers.free = append(matchers.free, m)
	}
	matchers.Unlock()
}

// forget drops every kept column and rung.
func (m *Matcher) forget() {
	for a := range m.kept {
		m.kept[a].q = -1
		m.rungs[a] = m.rungs[a][:0]
		m.below[a] = m.below[a][:0]
	}
}

// size gives the matcher a kept column and a rung list per attribute
// of its view, on first use: matchers that never pass allocate none.
func (m *Matcher) size() {
	if len(m.kept) != m.v.m {
		m.kept = slices.Grow(m.kept[:0], m.v.m)[:m.v.m]
		m.rungs = slices.Grow(m.rungs[:0], m.v.m)[:m.v.m]
		m.below = slices.Grow(m.below[:0], m.v.m)[:m.v.m]
		m.forget()
	}
}

// Keep caps the kept columns at the thresholds of sigma, the rule set
// of the run: attribute a's column is capped at the largest exact
// threshold sigma has on a (on an LHS or as RHS), so no pass over its
// rules needs a larger one, and each of a's distinct exact thresholds
// becomes a rung of the column's ladder, which answers a test at that
// threshold with a word copy. A test at any other threshold is filled
// from the column. Keep drops the columns kept so far.
func (m *Matcher) Keep(sigma rfd.Set) {
	m.size()
	m.forget()
	add := func(c rfd.Constraint) {
		if Exact(c.Threshold) {
			m.rungs[c.Attr] = append(m.rungs[c.Attr], c.Threshold)
		}
	}
	for _, dep := range sigma {
		for _, c := range dep.LHS {
			add(c)
		}
		add(dep.RHS)
	}
	most := 0
	for a, rs := range m.rungs {
		slices.Sort(rs)
		rs = slices.Compact(rs)
		m.rungs[a] = rs
		most = max(most, len(rs))
		if len(rs) == 0 {
			continue
		}
		r := int32(0)
		for k := 0; k <= maxBelow && float64(k-1) < rs[len(rs)-1]; k++ {
			for rs[r] <= float64(k-1) {
				r++
			}
			m.below[a] = append(m.below[a], r)
		}
	}
	m.first = slices.Grow(m.first[:0], most)[:most]
}

// rungOf returns the index of th among attr's rungs, or -1.
func (m *Matcher) rungOf(attr int, th float64) int32 {
	if k, ok := slices.BinarySearch(m.rungs[attr], th); ok {
		return int32(k)
	}
	return -1
}

// View returns the underlying view.
func (m *Matcher) View() *View { return m.v }

// Distance mirrors View.Distance.
func (m *Matcher) Distance(attr, i, j int) float64 {
	return m.v.distanceSC(m.sc, attr, i, j)
}

// Within mirrors View.Within.
func (m *Matcher) Within(attr, i, j int, max float64) bool {
	return m.v.withinSC(m.sc, attr, i, j, max)
}

// MatchesLHS mirrors View.MatchesLHS.
func (m *Matcher) MatchesLHS(dep *rfd.RFD, i, j int) bool {
	return m.v.matchesLHSSC(m.sc, dep, i, j)
}

// Violates mirrors View.Violates.
func (m *Matcher) Violates(dep *rfd.RFD, i, j int) bool {
	return m.v.violatesSC(m.sc, dep, i, j)
}

// DistMin mirrors View.DistMin.
func (m *Matcher) DistMin(deps rfd.Set, i, j int) (float64, bool) {
	return m.v.distMinSC(m.sc, deps, i, j)
}

// PatternInto mirrors View.PatternInto.
func (m *Matcher) PatternInto(p distance.Pattern, i, j int) {
	m.v.patternIntoSC(m.sc, p, i, j)
}

// PatternBetween mirrors View.PatternBetween.
func (m *Matcher) PatternBetween(i, j int) distance.Pattern {
	p := distance.NewPattern(m.v.m)
	m.v.patternIntoSC(m.sc, p, i, j)
	return p
}
