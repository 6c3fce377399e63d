package discovery

import (
	"math"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/rfd"
)

// Maintainer keeps a discovered RFDc set valid as tuples arrive — the
// incremental-discovery capability the paper's Sec. 7 names as a
// prerequisite for streaming scenarios (citing the incremental
// algorithms of Caruccio et al. [4, 5]). Instead of re-running discovery
// after every arrival, the maintainer checks only the pairs the new
// tuple introduces:
//
//   - a pair that witnesses a violation of φ forces a repair: φ's LHS is
//     tightened just below the pair's distance on the cheapest attribute
//     (the same greedy cut discovery uses), or φ is dropped when the
//     pair is identical on the whole LHS;
//   - tightening is monotone, so a dependency only ever gets more
//     restrictive and the maintained set always holds on the instance
//     seen so far.
type Maintainer struct {
	v       *engine.View
	m       *engine.Matcher // serial-path kernel arena over v
	sigma   rfd.Set
	workers int
	// one is the serial-path pattern scratch, reused across appends.
	one distance.Pattern
	// pats is the parallel-path pattern slab (one row per earlier
	// tuple), grown as the instance grows and reused across appends.
	pats []distance.Pattern
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
	return NewMaintainerWorkers(base, sigma, 1)
}

// NewMaintainerWorkers is NewMaintainer with the per-arrival pattern
// materialization chunked across workers (0 means runtime.NumCPU(), 1
// the serial path). Repairs are applied serially in pair order either
// way, so the maintained set is identical for every worker count.
func NewMaintainerWorkers(base *dataset.Relation, sigma rfd.Set, workers int) *Maintainer {
	cp := sigma.Clone()
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	v := engine.Compile(base.Clone())
	return &Maintainer{v: v, m: v.Matcher(), sigma: cp, workers: workers}
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
	row := mt.v.Len() - 1

	repair := func(p distance.Pattern) {
		// In-place compaction: the write index never passes the read
		// index, so filtering reuses the working set's backing array
		// instead of allocating a fresh slice per pair.
		kept := mt.sigma[:0]
		for _, dep := range mt.sigma {
			repaired, ok := repairAgainst(dep, p)
			if !ok {
				dropped++
				continue
			}
			if repaired != dep {
				tightened++
			}
			kept = append(kept, repaired)
		}
		mt.sigma = kept
	}

	if mt.workers <= 1 || row < 2*mt.workers {
		if mt.one == nil {
			mt.one = distance.NewPattern(mt.v.Arity())
		}
		for j := 0; j < row; j++ {
			mt.m.PatternInto(mt.one, row, j)
			repair(mt.one)
		}
	} else {
		// Materialize the new tuple's patterns against every earlier row
		// concurrently (view reads are safe), then apply repairs serially
		// in pair order — identical to the serial sweep.
		pats := mt.patternsAgainst(row)
		for j := 0; j < row; j++ {
			repair(pats[j])
		}
	}
	mt.dropped += dropped
	mt.tightened += tightened
	return dropped, tightened, nil
}

// patternsAgainst fills (and, when needed, grows) the reusable slab with
// the distance patterns between row and every earlier row, chunked
// across the maintainer's workers.
func (mt *Maintainer) patternsAgainst(row int) []distance.Pattern {
	if len(mt.pats) < row {
		grown := patternSlab(row*2, mt.v.Arity())
		mt.pats = grown
	}
	runChunks(mt.workers, row, func(_, lo, hi int) {
		wm := mt.v.Matcher() // per-chunk kernel arena
		for j := lo; j < hi; j++ {
			wm.PatternInto(mt.pats[j], row, j)
		}
	})
	return mt.pats[:row]
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
