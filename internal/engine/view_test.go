package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/rfd"
)

// randomMixedRelation builds a relation exercising every comparison
// class the view must mirror: strings (with repeats, so interning
// matters), ints, floats, bools, nulls, and cross-kind cells
// within a column (incomparable pairs).
func randomMixedRelation(rng *rand.Rand, n int) *dataset.Relation {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "S", Kind: dataset.KindString},
		dataset.Attribute{Name: "I", Kind: dataset.KindInt},
		dataset.Attribute{Name: "F", Kind: dataset.KindFloat},
		dataset.Attribute{Name: "B", Kind: dataset.KindBool},
		dataset.Attribute{Name: "X", Kind: dataset.KindString},
	)
	words := []string{"", "a", "ab", "abc", "granita", "granite", "chinois", "citrus", "fenix", "höllywood"}
	rel := dataset.NewRelation(schema)
	for i := 0; i < n; i++ {
		t := make(dataset.Tuple, schema.Len())
		t[0] = dataset.NewString(words[rng.Intn(len(words))])
		t[1] = dataset.NewInt(int64(rng.Intn(8)))
		t[2] = dataset.NewFloat(float64(rng.Intn(12)) / 2)
		t[3] = dataset.NewBool(rng.Intn(2) == 0)
		t[4] = dataset.NewString(words[rng.Intn(len(words))])
		for a := 0; a < 4; a++ {
			if rng.Float64() < 0.15 {
				t[a] = dataset.Null
			}
		}
		rel.MustAppend(t)
	}
	// X mixes kinds in the same column (Set bypasses Append's kind
	// validation, like an imputation from a cross-typed donor would):
	// incomparable pairs must come out Missing.
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0: // keep the string
		case 1:
			rel.Set(i, 4, dataset.NewInt(int64(rng.Intn(5))))
		default:
			rel.Set(i, 4, dataset.Null)
		}
	}
	return rel
}

func sameDist(a, b float64) bool {
	if distance.IsMissing(a) || distance.IsMissing(b) {
		return distance.IsMissing(a) && distance.IsMissing(b)
	}
	return a == b
}

// TestViewDistanceParity: the view's Distance, Within, and
// PatternBetween agree with the scalar distance package on every pair,
// attribute, and threshold — including null and cross-kind cells.
func TestViewDistanceParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		rel := randomMixedRelation(rng, 12)
		v := Compile(rel)
		for i := 0; i < rel.Len(); i++ {
			for j := 0; j < rel.Len(); j++ {
				ref := distance.PatternBetween(rel.Row(i), rel.Row(j))
				got := v.PatternBetween(i, j)
				for a := 0; a < v.Arity(); a++ {
					if !sameDist(got[a], ref[a]) {
						t.Fatalf("trial %d: Distance(%d,%d,%d) = %v, want %v",
							trial, a, i, j, got[a], ref[a])
					}
					for _, th := range []float64{0, 0.5, 1, 2, 3.7, 10} {
						want := distance.ValuesWithin(rel.Get(i, a), rel.Get(j, a), th)
						if v.Within(a, i, j, th) != want {
							t.Fatalf("trial %d: Within(%d,%d,%d,%v) = %v, want %v",
								trial, a, i, j, th, !want, want)
						}
					}
				}
			}
		}
	}
}

// TestViewMatcherParity: MatchesLHS, Violates, and DistMin agree with
// the pattern-based reference evaluation used before the engine.
func TestViewMatcherParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		rel := randomMixedRelation(rng, 10)
		schema := rel.Schema()
		sigma := rfd.Set{
			rfd.MustParse("S(<=2) -> I(<=1)", schema),
			rfd.MustParse("I(<=1), F(<=0.5) -> S(<=3)", schema),
			rfd.MustParse("B(<=0), X(<=2) -> F(<=1)", schema),
			rfd.MustParse("S(<=0) -> X(<=0)", schema),
		}
		v := Compile(rel)
		for i := 0; i < rel.Len(); i++ {
			for j := 0; j < rel.Len(); j++ {
				if i == j {
					continue
				}
				p := distance.PatternBetween(rel.Row(i), rel.Row(j))
				for _, dep := range sigma {
					if got, want := v.MatchesLHS(dep, i, j), dep.LHSSatisfiedBy(p); got != want {
						t.Fatalf("trial %d: MatchesLHS(%s,%d,%d) = %v, want %v",
							trial, dep.Format(schema), i, j, got, want)
					}
					if got, want := v.Violates(dep, i, j), dep.ViolatedBy(p); got != want {
						t.Fatalf("trial %d: Violates(%s,%d,%d) = %v, want %v",
							trial, dep.Format(schema), i, j, got, want)
					}
				}
				// DistMin vs the Eq. 2 reference: min MeanOver across
				// dependencies whose LHS the pattern satisfies.
				wantD, wantOK := 0.0, false
				for _, dep := range sigma {
					if !dep.LHSSatisfiedBy(p) {
						continue
					}
					if d, ok := p.MeanOver(dep.LHSAttrs()); ok {
						if !wantOK || d < wantD {
							wantD, wantOK = d, true
						}
					}
				}
				gotD, gotOK := v.DistMin(sigma, i, j)
				if gotOK != wantOK || (wantOK && gotD != wantD) {
					t.Fatalf("trial %d: DistMin(%d,%d) = %v,%v, want %v,%v",
						trial, i, j, gotD, gotOK, wantD, wantOK)
				}
			}
		}
	}
}

// TestViewWriteThrough: Set and Append update both the backing relation
// and the columnar form, so subsequent evaluations see the new values.
func TestViewWriteThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := randomMixedRelation(rng, 6)
	v := Compile(rel)
	v.Set(0, 0, dataset.NewString("granita"))
	v.Set(1, 0, dataset.NewString("granite"))
	if rel.Get(0, 0).Str() != "granita" {
		t.Fatal("Set did not write through to the relation")
	}
	if d := v.Distance(0, 0, 1); d != 1 {
		t.Fatalf("Distance after Set = %v, want 1", d)
	}
	t2 := rel.Row(2).Clone()
	t2[0] = dataset.NewString("granitas")
	if err := v.Append(t2); err != nil {
		t.Fatal(err)
	}
	if v.Len() != rel.Len() || rel.Len() != 7 {
		t.Fatalf("Append: view len %d, relation len %d", v.Len(), rel.Len())
	}
	if d := v.Distance(0, 0, 6); d != 1 {
		t.Fatalf("Distance to appended row = %v, want 1", d)
	}
}

// TestViewDonorPool: flat indexing covers target then donors in pool
// order; SourceOf inverts it; Append is rejected on multi-source views.
func TestViewDonorPool(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := randomMixedRelation(rng, 4)
	d0 := randomMixedRelation(rng, 3)
	d1 := randomMixedRelation(rng, 2)
	v := CompileWithDonors(target, []*dataset.Relation{d0, d1})
	if v.Len() != 9 || v.TargetLen() != 4 {
		t.Fatalf("Len = %d, TargetLen = %d", v.Len(), v.TargetLen())
	}
	wants := []struct{ source, row int }{
		{-1, 0}, {-1, 1}, {-1, 2}, {-1, 3},
		{0, 0}, {0, 1}, {0, 2},
		{1, 0}, {1, 1},
	}
	rels := []*dataset.Relation{target, d0, d1}
	for flat, want := range wants {
		s, r := v.SourceOf(flat)
		if s != want.source || r != want.row {
			t.Fatalf("SourceOf(%d) = %d,%d, want %d,%d", flat, s, r, want.source, want.row)
		}
		for a := 0; a < v.Arity(); a++ {
			if !v.Value(flat, a).Equal(rels[s+1].Get(r, a)) {
				t.Fatalf("Value(%d,%d) mismatch", flat, a)
			}
		}
	}
	if err := v.Append(target.Row(0).Clone()); err == nil {
		t.Fatal("Append on a multi-source view must fail")
	}
}

// TestViewConcurrentReads: concurrent evaluation is race-free and
// consistent with the scalar reference (run under -race in the race
// target).
func TestViewConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := randomMixedRelation(rng, 16)
	v := Compile(rel)
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < rel.Len(); i++ {
				for j := 0; j < rel.Len(); j++ {
					for a := 0; a < v.Arity(); a++ {
						got := v.Distance(a, i, j)
						want := distance.Values(rel.Get(i, a), rel.Get(j, a))
						if !sameDist(got, want) {
							errs <- fmt.Errorf("Distance(%d,%d,%d) = %v, want %v", a, i, j, got, want)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
