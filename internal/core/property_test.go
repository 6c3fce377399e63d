package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rfd"
)

// randomInstance builds a small random relation with string and int
// attributes, duplicate-prone values, and missing cells.
func randomInstance(rng *rand.Rand) *dataset.Relation {
	m := 2 + rng.Intn(3) // 2-4 attributes
	attrs := make([]dataset.Attribute, m)
	for a := 0; a < m; a++ {
		kind := dataset.KindString
		if rng.Intn(2) == 0 {
			kind = dataset.KindInt
		}
		attrs[a] = dataset.Attribute{Name: fmt.Sprintf("A%d", a), Kind: kind}
	}
	rel := dataset.NewRelation(dataset.NewSchema(attrs...))
	n := 4 + rng.Intn(10)
	words := []string{"aa", "ab", "ba", "abc", "zz"}
	for i := 0; i < n; i++ {
		t := make(dataset.Tuple, m)
		for a := 0; a < m; a++ {
			switch {
			case rng.Float64() < 0.15:
				t[a] = dataset.Null
			case attrs[a].Kind == dataset.KindInt:
				t[a] = dataset.NewInt(int64(rng.Intn(4)))
			default:
				t[a] = dataset.NewString(words[rng.Intn(len(words))])
			}
		}
		rel.MustAppend(t)
	}
	return rel
}

// randomSigma builds a small random RFDc set over the schema.
func randomSigma(rng *rand.Rand, m int) rfd.Set {
	var sigma rfd.Set
	count := 1 + rng.Intn(4)
	for k := 0; k < count; k++ {
		rhs := rng.Intn(m)
		var lhs []rfd.Constraint
		for a := 0; a < m; a++ {
			if a != rhs && rng.Float64() < 0.6 {
				lhs = append(lhs, rfd.Constraint{Attr: a, Threshold: float64(rng.Intn(3))})
			}
		}
		if len(lhs) == 0 {
			lhs = []rfd.Constraint{{Attr: (rhs + 1) % m, Threshold: float64(rng.Intn(3))}}
		}
		dep, err := rfd.New(lhs, rfd.Constraint{Attr: rhs, Threshold: float64(rng.Intn(3))})
		if err != nil {
			continue
		}
		sigma = append(sigma, dep)
	}
	return sigma
}

// TestPropertyOnlyMissingCellsChange: an imputation run may only touch
// cells that were null on input, and every filled value must equal some
// donor's value on that attribute.
func TestPropertyOnlyMissingCellsChange(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		res, err := New(sigma).Impute(rel)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < rel.Len(); i++ {
			for a := 0; a < rel.Schema().Len(); a++ {
				before, after := rel.Get(i, a), res.Relation.Get(i, a)
				if !before.IsNull() && !before.Equal(after) {
					t.Fatalf("trial %d: observed cell (%d,%d) changed %v -> %v",
						trial, i, a, before, after)
				}
				if before.IsNull() && !after.IsNull() {
					// Must be a value present somewhere on the attribute.
					found := false
					for j := 0; j < rel.Len() && !found; j++ {
						if rel.Get(j, a).Equal(after) {
							found = true
						}
					}
					if !found {
						t.Fatalf("trial %d: imputed value %v not from any donor", trial, after)
					}
				}
			}
		}
	}
}

// TestPropertyStatsAlwaysConsistent: run counters must reconcile on any
// input.
func TestPropertyStatsAlwaysConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		res, err := New(sigma).Impute(rel)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.Imputed+s.Unimputed != s.MissingCells {
			t.Fatalf("trial %d: %d + %d != %d", trial, s.Imputed, s.Unimputed, s.MissingCells)
		}
		if s.CandidatesTried != s.Imputed+s.VerifyRejections {
			t.Fatalf("trial %d: tried %d != imputed %d + rejected %d",
				trial, s.CandidatesTried, s.Imputed, s.VerifyRejections)
		}
		if len(res.Imputations) != s.Imputed || len(res.Unimputed) != s.Unimputed {
			t.Fatalf("trial %d: record lengths disagree with counters", trial)
		}
	}
}

// TestPropertyVerifyBothSidesPreservesHolding: with the full
// Definition 4.3 check, every non-key dependency that held on the input
// still holds on the output.
func TestPropertyVerifyBothSidesPreservesHolding(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		res, err := New(sigma, WithVerifyMode(VerifyBothSides)).Impute(rel)
		if err != nil {
			t.Fatal(err)
		}
		for i, dep := range sigma {
			if dep.HoldsOn(rel) && !dep.HoldsOn(res.Relation) {
				t.Fatalf("trial %d: dep %d held before, violated after (VerifyBothSides)", trial, i)
			}
		}
	}
}

// TestPropertyMonotoneFillCount: turning verification off can only fill
// at least as many cells as the paper-faithful configuration.
func TestPropertyMonotoneFillCount(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 120; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		strict, err := New(sigma).Impute(rel)
		if err != nil {
			t.Fatal(err)
		}
		loose, err := New(sigma, WithVerifyMode(VerifyOff)).Impute(rel)
		if err != nil {
			t.Fatal(err)
		}
		if loose.Stats.Imputed < strict.Stats.Imputed {
			t.Fatalf("trial %d: VerifyOff imputed %d < VerifyLHS %d",
				trial, loose.Stats.Imputed, strict.Stats.Imputed)
		}
	}
}

// TestPropertyStreamEquivalentDonorVisibility: a stream fed the same
// tuples row by row ends with at most as many missing cells as a single
// batch run over the full instance, because both retry logic and batch
// order see the same donors. (The stream additionally retries, so it
// can only do better or equal.)
func TestPropertyStreamFillsAtLeastBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		batch, err := New(sigma).Impute(rel)
		if err != nil {
			t.Fatal(err)
		}
		s := New(sigma).NewStream(rel.Head(0))
		for i := 0; i < rel.Len(); i++ {
			if _, err := s.Append(rel.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.RetryMissing()
		if s.Relation().CountMissing() > batch.Relation.CountMissing()+rel.CountMissing() {
			t.Fatalf("trial %d: stream left %d missing, batch %d",
				trial, s.Relation().CountMissing(), batch.Relation.CountMissing())
		}
	}
}

// TestPropertyKeyTrackerAgreesWithDefinition: the incremental tracker's
// verdicts must match Definition 3.4 evaluated from scratch after every
// imputation run.
func TestPropertyKeyTrackerAgreesWithDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 120; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		kt := &keyTracker{}
		kt.init(context.Background(), engine.Compile(rel).Matcher(), sigma)
		for s, dep := range sigma {
			if kt.isKey[s] != dep.IsKey(rel) {
				t.Fatalf("trial %d: tracker says key=%v, definition says %v for dep %d",
					trial, kt.isKey[s], dep.IsKey(rel), s)
			}
		}
	}
}
