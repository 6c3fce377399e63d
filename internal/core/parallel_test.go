package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/rfd"
)

// TestParallelEquivalentToSerial: every worker count produces the exact
// serial result on random instances — Imputations, Unimputed, and the
// final relation all match.
func TestParallelEquivalentToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 80; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		serial, err := New(sigma).Impute(rel)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := New(sigma, WithWorkers(workers)).Impute(rel)
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Relation.Equal(par.Relation) {
				t.Fatalf("trial %d workers %d: relations diverge", trial, workers)
			}
			if len(serial.Imputations) != len(par.Imputations) {
				t.Fatalf("trial %d workers %d: imputation counts %d vs %d",
					trial, workers, len(serial.Imputations), len(par.Imputations))
			}
			for i := range serial.Imputations {
				if serial.Imputations[i] != par.Imputations[i] {
					t.Fatalf("trial %d workers %d: imputation %d differs:\n%+v\n%+v",
						trial, workers, i, serial.Imputations[i], par.Imputations[i])
				}
			}
			if serial.Stats.KeyRFDs != par.Stats.KeyRFDs {
				t.Fatalf("trial %d workers %d: key counts differ", trial, workers)
			}
		}
	}
}

func TestParallelPaperExample(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	res, err := New(sigma, WithWorkers(4)).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	phone := rel.Schema().MustIndex("Phone")
	if got := res.Relation.Get(6, phone).Str(); got != "310-392-9025" {
		t.Errorf("parallel t7[Phone] = %q", got)
	}
	if res.Stats.Imputed != 4 {
		t.Errorf("parallel imputed %d", res.Stats.Imputed)
	}
}

func TestParallelKeyTrackerAgreesWithSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 60; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		serial := newKeyTracker(context.Background(), engine.Compile(rel), sigma)
		for _, workers := range []int{2, 5} {
			par := newKeyTrackerParallel(context.Background(), engine.Compile(rel), sigma, workers)
			if par.keys != serial.keys {
				t.Fatalf("trial %d: key counts %d vs %d", trial, par.keys, serial.keys)
			}
			for s := range sigma {
				if par.isKey[s] != serial.isKey[s] {
					t.Fatalf("trial %d: dep %d verdicts differ", trial, s)
				}
			}
		}
	}
}

func TestParallelCandidateScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 60; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		var deps rfd.Set
		attr := rng.Intn(rel.Schema().Len())
		for _, dep := range sigma {
			if dep.RHS.Attr == attr {
				deps = append(deps, dep)
			}
		}
		if len(deps) == 0 {
			continue
		}
		row := rng.Intn(rel.Len())
		m := engine.Compile(rel).Matcher()
		serial := findCandidateTuples(context.Background(), m, row, attr, deps)
		par := findCandidateTuplesParallel(context.Background(), m, row, attr, deps, 3)
		if len(serial) != len(par) {
			t.Fatalf("trial %d: candidate counts %d vs %d", trial, len(serial), len(par))
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("trial %d: candidate %d differs: %+v vs %+v", trial, i, serial[i], par[i])
			}
		}
	}
}
