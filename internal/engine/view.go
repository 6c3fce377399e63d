// Package engine is the shared evaluation layer under imputation,
// verification, and discovery. Every consumer that used to hand-roll a
// distance-pattern loop — candidate search (Alg. 3), IS_FAULTLESS
// (Alg. 4), key-RFDc tracking, streaming maintenance, discovery — now
// evaluates tuple pairs through one compiled View:
//
//   - a columnar compiled form of the relation(s): per-attribute typed
//     columns with interned string values and pre-decoded rune slices,
//     so equal interned values short-circuit to distance 0 and the
//     banded Levenshtein kernel early-exits on length difference;
//   - one Matcher API (Distance / Within / MatchesLHS / Violates /
//     DistMin / PatternBetween) plus RowPass, which answers rules for
//     one query row over its kept distance columns (column.go).
//
// A View addresses rows by flat index: the target relation's rows come
// first ([0, TargetLen)), then each donor relation's rows in pool
// order. Single-relation views have Len() == TargetLen().
package engine

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/rfd"
)

// col is one attribute's columnar storage across all flat rows.
// Strings are represented by interned ids (sid); numerics and booleans
// by their float payload (num). Exactly one of the two is meaningful
// per cell, per kind. writes counts the cells Set and Append have
// written since compile, so a Matcher's kept column on the attribute
// is valid while it is unchanged.
type col struct {
	kind   []dataset.Kind
	num    []float64
	sid    []int32
	writes uint64
}

// interner assigns dense ids to the distinct string values of one
// attribute and pre-decodes each value's comparison symbols once. An
// interner may sit on top of a frozen lower tier (Shared.Extend):
// ids [0, nb) resolve through the base read-only, ids >= nb are local.
// The base tier is never written, so any number of upper tiers can
// share it concurrently.
type interner struct {
	base  *interner // frozen lower tier; nil for a root interner
	nb    int32     // number of ids owned by the base tier
	ids   map[string]int32
	strs  []string
	runes [][]rune
	lens  []int
	masks []uint64 // alphabet signatures (distance.RuneMask), one per id
}

func (in *interner) intern(s string) int32 {
	if in.base != nil {
		if id, ok := in.base.ids[s]; ok {
			return id
		}
	}
	if id, ok := in.ids[s]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[string]int32)
	}
	id := in.nb + int32(len(in.strs))
	in.ids[s] = id
	r := distance.Runes(s)
	in.strs = append(in.strs, s)
	in.runes = append(in.runes, r)
	in.lens = append(in.lens, len(r))
	in.masks = append(in.masks, distance.RuneMask(r))
	return id
}

// runesOf resolves an id to its pre-decoded comparison symbols.
func (in *interner) runesOf(id int32) []rune {
	if id < in.nb {
		return in.base.runes[id]
	}
	return in.runes[id-in.nb]
}

// lenOf resolves an id to its symbol count.
func (in *interner) lenOf(id int32) int {
	if id < in.nb {
		return in.base.lens[id]
	}
	return in.lens[id-in.nb]
}

// maskOf resolves an id to its alphabet signature, computed once at
// intern time — the bounded predicate's pre-filter reads it instead of
// rescanning the runes.
func (in *interner) maskOf(id int32) uint64 {
	if id < in.nb {
		return in.base.masks[id]
	}
	return in.masks[id-in.nb]
}

// View is the compiled evaluation form of a target relation plus an
// optional donor pool. Reads (Distance, Within, MatchesLHS, ...) are
// safe for concurrent use; writes (Set, Append) must not race with
// reads — the imputation loop mutates only between scans, exactly as
// it did against the raw relation.
type View struct {
	rels    []*dataset.Relation // rels[0] is the target
	offsets []int               // offsets[s] = flat index of rels[s]'s row 0
	n       int                 // total flat rows
	m       int                 // arity
	cols    []col
	interns []*interner

	// Two-tier views (Shared.Extend): flat rows >= baseOff resolve into
	// the shared base columns; cols above holds only the target segment.
	base    *Shared
	baseOff int

	// frozen marks a read-only view over a Shared base: Set and Append
	// panic instead of corrupting state other views share.
	frozen bool
}

// colAt resolves a flat row to the columnar segment holding it and the
// row's index within that segment.
func (v *View) colAt(attr, flat int) (*col, int) {
	if v.base != nil && flat >= v.baseOff {
		return &v.base.cols[attr], flat - v.baseOff
	}
	return &v.cols[attr], flat
}

// Compile builds a single-relation view. The relation is referenced,
// not copied: Set and Append write through to it.
func Compile(rel *dataset.Relation) *View {
	return CompileWithDonors(rel, nil)
}

// CompileWithDonors builds a view over the target relation followed by
// the donor pool. Donor schemas must have the target's arity (the
// caller validates full schema compatibility).
func CompileWithDonors(rel *dataset.Relation, donors []*dataset.Relation) *View {
	m := rel.Schema().Len()
	v := &View{
		rels:    append([]*dataset.Relation{rel}, donors...),
		m:       m,
		cols:    make([]col, m),
		interns: make([]*interner, m),
	}
	v.offsets = make([]int, len(v.rels))
	for s, r := range v.rels {
		v.offsets[s] = v.n
		v.n += r.Len()
	}
	for a := 0; a < m; a++ {
		v.interns[a] = &interner{}
		v.cols[a] = col{
			kind: make([]dataset.Kind, v.n),
			num:  make([]float64, v.n),
			sid:  make([]int32, v.n),
		}
	}
	flat := 0
	for _, r := range v.rels {
		for i := 0; i < r.Len(); i++ {
			t := r.Row(i)
			for a := 0; a < m; a++ {
				v.setCell(flat, a, t[a])
			}
			flat++
		}
	}
	return v
}

// setCell writes one cell into the columnar form.
func (v *View) setCell(flat, attr int, val dataset.Value) {
	c := &v.cols[attr]
	k := val.Kind()
	c.kind[flat] = k
	switch k {
	case dataset.KindString:
		c.sid[flat] = v.interns[attr].intern(val.Str())
		c.num[flat] = 0
	case dataset.KindNull:
		c.sid[flat] = -1
		c.num[flat] = 0
	default:
		c.num[flat] = val.Float()
		c.sid[flat] = -1
	}
}

// Arity returns the schema arity.
func (v *View) Arity() int { return v.m }

// Len returns the total number of flat rows (target + donors).
func (v *View) Len() int { return v.n }

// TargetLen returns the number of target-relation rows.
func (v *View) TargetLen() int { return v.rels[0].Len() }

// Relation returns the target relation the view compiles.
func (v *View) Relation() *dataset.Relation { return v.rels[0] }

// SourceOf resolves a flat row index to (source, row): source -1 is the
// target relation, 0.. indexes the donor pool.
func (v *View) SourceOf(flat int) (source, row int) {
	for s := len(v.offsets) - 1; s >= 0; s-- {
		if flat >= v.offsets[s] {
			return s - 1, flat - v.offsets[s]
		}
	}
	return -1, flat
}

// IsNull reports whether the cell at (flat, attr) is missing.
func (v *View) IsNull(flat, attr int) bool {
	c, r := v.colAt(attr, flat)
	return c.kind[r] == dataset.KindNull
}

// Value returns the cell at (flat, attr).
func (v *View) Value(flat, attr int) dataset.Value {
	s, row := v.SourceOf(flat)
	return v.rels[s+1].Get(row, attr)
}

// ValueKey names a cell's value as the view's columns hold it: its kind
// and its interned string id or its numeric payload. Two cells of one
// attribute with equal keys are interchangeable in every distance on
// that attribute.
type ValueKey struct {
	kind dataset.Kind
	bits uint64
}

// Key returns the ValueKey of the cell at (flat, attr).
func (v *View) Key(flat, attr int) ValueKey {
	c, r := v.colAt(attr, flat)
	k := ValueKey{kind: c.kind[r]}
	if k.kind == dataset.KindString {
		k.bits = uint64(c.sid[r])
	} else {
		k.bits = math.Float64bits(c.num[r])
	}
	return k
}

// Set writes a target-relation cell through to both the relation and
// the columnar form, so tentative imputations are immediately visible
// to every evaluation. Frozen views (Shared.View) panic: their storage
// is shared with every other view derived from the same base.
func (v *View) Set(row, attr int, val dataset.Value) {
	if v.frozen {
		panic("engine: Set on a frozen shared view")
	}
	v.rels[0].Set(row, attr, val)
	v.setCell(row, attr, val)
	v.cols[attr].writes++
}

// Append adds one tuple to a single-relation view (the incremental
// consumers: streams and maintainers), keeping relation and columns in
// step. It fails on multi-source views, where flat indices of later
// sources would shift.
func (v *View) Append(t dataset.Tuple) error {
	if len(v.rels) != 1 {
		return fmt.Errorf("engine: Append on a multi-source view")
	}
	if v.frozen {
		return fmt.Errorf("engine: Append on a frozen shared view")
	}
	if err := v.rels[0].Append(t); err != nil {
		return err
	}
	flat := v.n
	v.n++
	for a := 0; a < v.m; a++ {
		c := &v.cols[a]
		c.kind = append(c.kind, dataset.KindNull)
		c.num = append(c.num, 0)
		c.sid = append(c.sid, -1)
		v.setCell(flat, a, t[a])
		c.writes++
	}
	return nil
}

// Distance returns the domain-appropriate distance between the cells at
// (i, attr) and (j, attr), mirroring distance.Values exactly: Missing
// when either side is null or the kinds are incomparable. Equal
// interned strings short-circuit to 0; distinct pairs run the exact
// kernel on their pre-decoded runes.
func (v *View) Distance(attr, i, j int) float64 {
	return v.distanceSC(nil, attr, i, j)
}

// distanceSC is Distance with an optional per-worker kernel arena: nil
// borrows one from the distance package's pool on the (rare) compute
// path, a Matcher passes its own.
func (v *View) distanceSC(sc *distance.Scratch, attr, i, j int) float64 {
	ci, ri := v.colAt(attr, i)
	cj, rj := v.colAt(attr, j)
	ki, kj := ci.kind[ri], cj.kind[rj]
	if ki == dataset.KindNull || kj == dataset.KindNull {
		return distance.Missing
	}
	switch {
	case ki == dataset.KindString && kj == dataset.KindString:
		a, b := ci.sid[ri], cj.sid[rj]
		if a == b {
			return 0
		}
		return v.stringDistance(sc, attr, a, b)
	case ki.Numeric() && kj.Numeric():
		return math.Abs(ci.num[ri] - cj.num[rj])
	case ki == dataset.KindBool && kj == dataset.KindBool:
		if ci.num[ri] == cj.num[rj] {
			return 0
		}
		return 1
	default:
		return distance.Missing
	}
}

// stringDistance computes the exact edit distance of a distinct
// interned pair (through the caller's arena when one is threaded in).
func (v *View) stringDistance(sc *distance.Scratch, attr int, a, b int32) float64 {
	in := v.interns[attr]
	if sc != nil {
		return float64(sc.LevenshteinRunes(in.runesOf(a), in.runesOf(b)))
	}
	return float64(distance.LevenshteinRunes(in.runesOf(a), in.runesOf(b)))
}

// Within reports whether Distance(attr, i, j) <= max, mirroring
// distance.ValuesWithin: false when either side is null or the kinds
// are incomparable. For strings it runs the bounded kernel behind its
// length and alphabet-mask pre-filters, so a failed threshold check
// never pays for an exact distance.
func (v *View) Within(attr, i, j int, max float64) bool {
	return v.withinSC(nil, attr, i, j, max)
}

// withinSC is Within with an optional per-worker kernel arena.
func (v *View) withinSC(sc *distance.Scratch, attr, i, j int, max float64) bool {
	ci, ri := v.colAt(attr, i)
	cj, rj := v.colAt(attr, j)
	ki, kj := ci.kind[ri], cj.kind[rj]
	if ki == dataset.KindNull || kj == dataset.KindNull {
		return false
	}
	switch {
	case ki == dataset.KindString && kj == dataset.KindString:
		// The integer bound is taken before the equality fast path so
		// out-of-range thresholds convert exactly as LevenshteinWithin's.
		bound := int(math.Floor(max))
		if bound < 0 {
			return false
		}
		a, b := ci.sid[ri], cj.sid[rj]
		if a == b {
			return true
		}
		in := v.interns[attr]
		if abs(in.lenOf(a)-in.lenOf(b)) > bound {
			// Edit distance is at least the length difference.
			return false
		}
		// The interned alphabet signatures make the mask pre-filter two
		// loads, not a rune scan.
		if sc != nil {
			return sc.WithinRunesMasked(in.runesOf(a), in.runesOf(b), in.maskOf(a), in.maskOf(b), bound)
		}
		return distance.LevenshteinRunesWithinMasked(in.runesOf(a), in.runesOf(b), in.maskOf(a), in.maskOf(b), bound)
	case ki.Numeric() && kj.Numeric():
		return math.Abs(ci.num[ri]-cj.num[rj]) <= max
	case ki == dataset.KindBool && kj == dataset.KindBool:
		d := 1.0
		if ci.num[ri] == cj.num[rj] {
			d = 0
		}
		return d <= max
	default:
		return false
	}
}

// MatchesLHS reports whether the pair (i, j) satisfies every LHS
// constraint of the dependency, early-exiting on the first failed
// attribute — the threshold-aware form of LHSSatisfiedBy.
func (v *View) MatchesLHS(dep *rfd.RFD, i, j int) bool {
	return v.matchesLHSSC(nil, dep, i, j)
}

func (v *View) matchesLHSSC(sc *distance.Scratch, dep *rfd.RFD, i, j int) bool {
	for _, c := range dep.LHS {
		if !v.withinSC(sc, c.Attr, i, j, c.Threshold) {
			return false
		}
	}
	return true
}

// Violates reports whether the pair (i, j) witnesses a violation of the
// dependency: LHS satisfied and the RHS distance present but above the
// threshold (a missing RHS component is not a witness).
func (v *View) Violates(dep *rfd.RFD, i, j int) bool {
	return v.violatesSC(nil, dep, i, j)
}

func (v *View) violatesSC(sc *distance.Scratch, dep *rfd.RFD, i, j int) bool {
	if !v.matchesLHSSC(sc, dep, i, j) {
		return false
	}
	d := v.distanceSC(sc, dep.RHS.Attr, i, j)
	return !distance.IsMissing(d) && d > dep.RHS.Threshold
}

// DistMin scores the pair (i, j) with Eq. 2: the minimum, over the
// dependencies whose LHS the pair satisfies, of the mean LHS distance.
// The summation runs in LHS attribute order, so results are
// bit-identical to Pattern.MeanOver over LHSAttrs.
func (v *View) DistMin(deps rfd.Set, i, j int) (float64, bool) {
	return v.distMinSC(nil, deps, i, j)
}

func (v *View) distMinSC(sc *distance.Scratch, deps rfd.Set, i, j int) (float64, bool) {
	distMin, found := 0.0, false
	for _, dep := range deps {
		if !v.matchesLHSSC(sc, dep, i, j) {
			continue
		}
		sum := 0.0
		for _, c := range dep.LHS {
			sum += v.distanceSC(sc, c.Attr, i, j)
		}
		d := sum / float64(len(dep.LHS))
		if !found || d < distMin {
			distMin, found = d, true
		}
	}
	return distMin, found
}

// PatternInto fills p with the full distance pattern of the pair
// (i, j). The slice must have len == Arity().
func (v *View) PatternInto(p distance.Pattern, i, j int) {
	v.patternIntoSC(nil, p, i, j)
}

func (v *View) patternIntoSC(sc *distance.Scratch, p distance.Pattern, i, j int) {
	for a := 0; a < v.m; a++ {
		p[a] = v.distanceSC(sc, a, i, j)
	}
}

// PatternBetween returns the distance pattern of the pair (i, j).
func (v *View) PatternBetween(i, j int) distance.Pattern {
	p := distance.NewPattern(v.m)
	v.PatternInto(p, i, j)
	return p
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
