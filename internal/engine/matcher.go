package engine

import (
	"repro/internal/distance"
	"repro/internal/rfd"
)

// Matcher binds a View to one per-worker kernel arena
// (distance.Scratch), making every pairwise evaluation allocation-free:
// the Myers pattern-equality table, the banded-DP row, and the rune
// decode buffers all live in the arena and are reused across calls.
//
// A Matcher is NOT safe for concurrent use — the arena is mutable
// worker state. Each goroutine that scans a view creates its own with
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
}

// Matcher returns a new single-goroutine evaluator over the view.
func (v *View) Matcher() *Matcher {
	return &Matcher{v: v, sc: distance.NewScratch()}
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
