package discovery

import (
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rfd"
)

// Maintainer keeps a discovered RFDc set valid as tuples arrive — the
// incremental-discovery capability the paper's Sec. 7 names as a
// prerequisite for streaming scenarios (citing the incremental
// algorithms of Caruccio et al. [4, 5]). Instead of re-running discovery
// after every arrival, the maintainer repairs Σ against only the pairs
// the new tuple introduces, through RevalidateRows:
//
//   - a pair that witnesses a violation of φ forces a repair: φ's LHS is
//     tightened just below the pair's distance on the cheapest attribute
//     (the same greedy cut discovery uses), or φ is dropped when the
//     pair is identical on the whole LHS;
//   - tightening is monotone, so a dependency only ever gets more
//     restrictive and the maintained set always holds on the instance
//     seen so far.
type Maintainer struct {
	v     *engine.View
	sigma rfd.Set
	// counters
	dropped   int
	tightened int
}

// NewMaintainer starts incremental maintenance from a base instance and
// a set holding on it. The base is cloned; Σ is deep-copied so repairs
// never mutate the caller's dependencies. The session owns one engine
// view, so distances compared against earlier arrivals stay memoized for
// later ones.
func NewMaintainer(base *dataset.Relation, sigma rfd.Set) *Maintainer {
	return &Maintainer{v: engine.Compile(base.Clone()), sigma: sigma.Clone()}
}

// Sigma returns the currently maintained set. The returned slice is the
// maintainer's working set; callers must not mutate it.
func (mt *Maintainer) Sigma() rfd.Set { return mt.sigma }

// Relation exposes the accumulated instance.
func (mt *Maintainer) Relation() *dataset.Relation { return mt.v.Relation() }

// Stats returns how many dependencies were dropped and how many repair
// tightenings were applied so far.
func (mt *Maintainer) Stats() (dropped, tightened int) { return mt.dropped, mt.tightened }

// Append adds one tuple and repairs the set against the new pairs. It
// returns the number of dependencies dropped and tightened by this
// arrival.
func (mt *Maintainer) Append(t dataset.Tuple) (dropped, tightened int, err error) {
	if err := mt.v.Append(t.Clone()); err != nil {
		return 0, 0, err
	}
	mt.sigma, dropped, tightened = RevalidateRows(mt.v, mt.sigma, []int{mt.v.Len() - 1})
	mt.dropped += dropped
	mt.tightened += tightened
	return dropped, tightened, nil
}
