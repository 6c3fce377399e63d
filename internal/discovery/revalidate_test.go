package discovery

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/rfd"
)

// revalidateInstance builds a mutated successor of table2 plus the rows
// a delta would mark changed: a few cell rewrites and a few appends.
func revalidateInstance(t *testing.T, rng *rand.Rand, appends int) (*dataset.Relation, []int) {
	t.Helper()
	rel := table2(t).Clone()
	words := []string{"Granita", "Citrus", "Fenix", "LA", "Hollywood", "French", "Californian", "C. Main"}
	changed := []int{1, 4}
	for _, r := range changed {
		rel.Set(r, rng.Intn(3), dataset.NewString(words[rng.Intn(len(words))]))
	}
	for k := 0; k < appends; k++ {
		tpl := make(dataset.Tuple, rel.Schema().Len())
		for a := 0; a < rel.Schema().Len(); a++ {
			if rel.Schema().Attr(a).Kind == dataset.KindInt {
				tpl[a] = dataset.NewInt(int64(rng.Intn(9)))
			} else {
				tpl[a] = dataset.NewString(words[rng.Intn(len(words))])
			}
		}
		rel.MustAppend(tpl)
		changed = append(changed, rel.Len()-1)
	}
	return rel, changed
}

// TestRevalidateRowsInvariant: the property a live session depends on —
// whatever RevalidateRows returns holds on the ENTIRE mutated instance,
// not just the checked pairs (tightening is monotone), and the caller's
// Σ comes back untouched.
func TestRevalidateRowsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	base := table2(t)
	sigma, err := Discover(base, Config{MaxThreshold: 9})
	if err != nil {
		t.Fatal(err)
	}
	orig := make(rfd.Set, len(sigma))
	for i, dep := range sigma {
		orig[i] = rfd.MustNew(append([]rfd.Constraint(nil), dep.LHS...), dep.RHS)
	}
	sawRepair := false
	for trial := 0; trial < 10; trial++ {
		rel, changed := revalidateInstance(t, rng, 2+rng.Intn(3))
		out, dropped, tightened := RevalidateRows(engine.Compile(rel), sigma, changed)
		if dropped+tightened > 0 {
			sawRepair = true
		}
		if len(out)+dropped != len(sigma) {
			t.Fatalf("trial %d: %d kept + %d dropped != %d in", trial, len(out), dropped, len(sigma))
		}
		for _, dep := range out {
			if !dep.HoldsOn(rel) {
				t.Errorf("trial %d: revalidated dependency violated on the new instance: %s",
					trial, dep.Format(rel.Schema()))
			}
		}
		for i, dep := range sigma {
			if !dep.Equal(orig[i]) {
				t.Fatalf("trial %d: RevalidateRows mutated the caller's Σ", trial)
			}
		}
	}
	if !sawRepair {
		t.Error("no trial needed a repair; the mutations are not exercising the cut")
	}
}

// TestRevalidateRowsMatchesLiteral: on random mixed-kind instances,
// random changed-row sets and random Σ — thresholds outside
// engine.Exact included — the bitset sweep returns the Σ, order and
// counts of the literal per-pair repair the Maintainer keeps.
func TestRevalidateRowsMatchesLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	repairs, literal := 0, 0
	for trial := 0; trial < 1500; trial++ {
		n := 3 + rng.Intn(80)
		if trial%150 == 0 {
			n = engine.MaxBlock + rng.Intn(300) // several blocks
		}
		rel := randomRevalidateInstance(rng, n)
		sigma := randomRevalidateSigma(rng, rel.Schema().Len())
		var rows []int
		for k := rng.Intn(4); k >= 0; k-- {
			rows = append(rows, rng.Intn(rel.Len()))
		}
		v := engine.Compile(rel)
		out, d, tt := RevalidateRows(v, sigma, rows)
		want, wantD, wantT := literalRevalidate(v, sigma, rows)
		if got, exp := formatSet(out, rel.Schema()), formatSet(want, rel.Schema()); got != exp || d != wantD || tt != wantT {
			t.Fatalf("trial %d rows %v: got (%d dropped, %d tightened)\n%s\nwant (%d, %d)\n%s",
				trial, rows, d, tt, got, wantD, wantT, exp)
		}
		repairs += d + tt
		for _, dep := range sigma {
			if !exactRule(dep) {
				literal++
				break
			}
		}
	}
	if repairs == 0 || literal == 0 {
		t.Fatalf("weak coverage: %d repairs, %d trials with a non-exact threshold", repairs, literal)
	}
}

// literalRevalidate is the per-pair repair sweep: every changed row
// against every other row (a changed pair once), every rule on every
// pair, the repair the Maintainer applies to each arrival.
func literalRevalidate(v *engine.View, sigma rfd.Set, rows []int) (rfd.Set, int, int) {
	cp := make(rfd.Set, len(sigma))
	for i, dep := range sigma {
		cp[i] = rfd.MustNew(append([]rfd.Constraint(nil), dep.LHS...), dep.RHS)
	}
	changed := map[int]bool{}
	for _, r := range rows {
		changed[r] = true
	}
	dropped, tightened := 0, 0
	p := distance.NewPattern(v.Arity())
	for r := 0; r < v.Len(); r++ {
		if !changed[r] {
			continue
		}
		for j := 0; j < v.Len(); j++ {
			if j == r || (changed[j] && j < r) {
				continue
			}
			v.PatternInto(p, r, j)
			kept := cp[:0]
			for _, dep := range cp {
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
			cp = kept
		}
	}
	return cp, dropped, tightened
}

// exactRule reports whether every threshold of dep is in engine.Exact.
func exactRule(dep *rfd.RFD) bool {
	for _, c := range dep.LHS {
		if !engine.Exact(c.Threshold) {
			return false
		}
	}
	return engine.Exact(dep.RHS.Threshold)
}

func formatSet(set rfd.Set, schema *dataset.Schema) string {
	var sb strings.Builder
	for _, dep := range set {
		sb.WriteString(dep.Format(schema))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// randomRevalidateInstance builds a random n-row relation over string,
// int, float and bool columns with near-duplicate strings and nulls.
func randomRevalidateInstance(rng *rand.Rand, n int) *dataset.Relation {
	kinds := []dataset.Kind{dataset.KindString, dataset.KindInt, dataset.KindFloat, dataset.KindBool}
	m := 2 + rng.Intn(4)
	attrs := make([]dataset.Attribute, m)
	for a := range attrs {
		attrs[a] = dataset.Attribute{Name: fmt.Sprintf("A%d", a), Kind: kinds[rng.Intn(len(kinds))]}
	}
	rel := dataset.NewRelation(dataset.NewSchema(attrs...))
	words := []string{"abc", "abd", "abcd", "xbc", "ab", "abce", "bca", "zzz"}
	for i := 0; i < n; i++ {
		t := make(dataset.Tuple, m)
		for a := range t {
			if rng.Float64() < 0.15 {
				continue
			}
			switch attrs[a].Kind {
			case dataset.KindString:
				t[a] = dataset.NewString(words[rng.Intn(len(words))])
			case dataset.KindInt:
				t[a] = dataset.NewInt(int64(rng.Intn(6)))
			case dataset.KindFloat:
				t[a] = dataset.NewFloat(float64(rng.Intn(8)) * 0.5)
			case dataset.KindBool:
				t[a] = dataset.NewBool(rng.Intn(2) == 0)
			}
		}
		rel.MustAppend(t)
	}
	return rel
}

// randomRevalidateSigma builds a random Σ with 1-3 LHS attributes and
// grid thresholds, now and then NaN, +Inf or 1e19.
func randomRevalidateSigma(rng *rand.Rand, m int) rfd.Set {
	th := func() float64 {
		if rng.Float64() < 0.03 {
			return []float64{math.Inf(1), 1e19, math.NaN()}[rng.Intn(3)]
		}
		return []float64{0, 0, 0.5, 1, 1.5, 2, 3, 4}[rng.Intn(8)]
	}
	var sigma rfd.Set
	for k := 1 + rng.Intn(8); k > 0; k-- {
		rhs := rng.Intn(m)
		var lhs []rfd.Constraint
		for _, a := range rng.Perm(m) {
			if a != rhs && len(lhs) < 3 && (len(lhs) == 0 || rng.Intn(2) == 0) {
				lhs = append(lhs, rfd.Constraint{Attr: a, Threshold: th()})
			}
		}
		if dep, err := rfd.New(lhs, rfd.Constraint{Attr: rhs, Threshold: th()}); err == nil {
			sigma = append(sigma, dep)
		}
	}
	return sigma
}

// TestRevalidateRowsMatchesMaintainer: for a pure append, revalidating
// the new row must agree with the Maintainer's incremental repair —
// same kept set, same drop/tighten counts — since both sweep the same
// pairs in the same order through the same greedy cut.
func TestRevalidateRowsMatchesMaintainer(t *testing.T) {
	base := table2(t)
	sigma, err := Discover(base, Config{MaxThreshold: 9})
	if err != nil {
		t.Fatal(err)
	}
	arrival := dataset.Tuple{
		dataset.NewString("Granita"), dataset.NewString("Hollywood"),
		dataset.NewString("310/456-0488"), dataset.NewString("French"),
		dataset.NewInt(3),
	}
	mt := NewMaintainer(base, sigma)
	wantD, wantT, err := mt.Append(arrival)
	if err != nil {
		t.Fatal(err)
	}

	grown := base.Clone()
	grown.MustAppend(arrival.Clone())
	out, d, tt := RevalidateRows(engine.Compile(grown), sigma, []int{grown.Len() - 1})
	if d != wantD || tt != wantT {
		t.Fatalf("counts (%d,%d) != maintainer (%d,%d)", d, tt, wantD, wantT)
	}
	want := mt.Sigma()
	if len(out) != len(want) {
		t.Fatalf("%d deps != maintainer %d", len(out), len(want))
	}
	for i := range out {
		if !out[i].Equal(want[i]) {
			t.Fatalf("dep %d diverged: %s vs %s", i,
				out[i].Format(base.Schema()), want[i].Format(base.Schema()))
		}
	}
}

// TestRevalidateRowsEdgeCases: no changed rows or an empty Σ short-
// circuit to a plain deep copy; duplicate row handles collapse.
func TestRevalidateRowsEdgeCases(t *testing.T) {
	base := table2(t)
	sigma, err := Discover(base, Config{MaxThreshold: 9})
	if err != nil {
		t.Fatal(err)
	}
	v := engine.Compile(base)

	out, d, tt := RevalidateRows(v, sigma, nil)
	if d != 0 || tt != 0 || len(out) != len(sigma) {
		t.Fatalf("no-rows call repaired: kept %d, dropped %d, tightened %d", len(out), d, tt)
	}
	out[0] = rfd.MustNew(append([]rfd.Constraint(nil), sigma[1].LHS...), sigma[1].RHS)
	if out[0].Equal(sigma[0]) && len(sigma) > 1 {
		t.Fatal("returned set aliases the caller's Σ")
	}

	if out, d, tt := RevalidateRows(v, rfd.Set{}, []int{0}); len(out) != 0 || d != 0 || tt != 0 {
		t.Fatal("empty Σ produced repairs")
	}

	dupOut, dupD, dupT := RevalidateRows(v, sigma, []int{2, 2, 2, 5, 5})
	oneOut, oneD, oneT := RevalidateRows(v, sigma, []int{2, 5})
	if dupD != oneD || dupT != oneT || len(dupOut) != len(oneOut) {
		t.Fatalf("duplicate handles changed the outcome: (%d,%d,%d) vs (%d,%d,%d)",
			len(dupOut), dupD, dupT, len(oneOut), oneD, oneT)
	}
}

// TestRevalidateRowsBlockEdges plants the only violating pair of a
// changed row at and around the edge of the sweep's first block.
func TestRevalidateRowsBlockEdges(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "A", Kind: dataset.KindInt},
		dataset.Attribute{Name: "B", Kind: dataset.KindInt},
	)
	sigma := rfd.Set{rfd.MustParse("A(<=0) -> B(<=0)", schema)}
	for _, p := range []int{engine.MaxBlock - 1, engine.MaxBlock, engine.MaxBlock + 1, engine.MaxBlock + 40} {
		rel := dataset.NewRelation(schema)
		for i := 0; i < engine.MaxBlock+50; i++ {
			rel.MustAppend(dataset.Tuple{dataset.NewInt(int64(10 * i)), dataset.NewInt(int64(i))})
		}
		rel.Set(0, 0, rel.Get(p, 0))
		out, dropped, _ := RevalidateRows(engine.Compile(rel), sigma, []int{0})
		if len(out) != 0 || dropped != 1 {
			t.Errorf("violation at row %d not repaired: %d rules left, %d dropped", p, len(out), dropped)
		}
	}
}
