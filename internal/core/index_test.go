package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/rfd"
)

func TestCandidateIndexNilSafety(t *testing.T) {
	var idx *engine.Index
	if _, ok := idx.CandidateRows(0, nil); ok {
		t.Error("nil index claimed candidate rows")
	}
	idx.Insert(0, 0) // must not panic
	if idx.Probes() != 0 {
		t.Error("nil index reported probes")
	}
}

func TestCandidateIndexEqualityProbe(t *testing.T) {
	rel := table2(t)
	// Cluster with a single equality-using dependency: φ5's premise needs
	// Phone(<=0), so only equal-phone donors are worth scanning.
	sigma := rfd.Set{rfd.MustParse("Name(<=8), Phone(<=0) -> City(<=9)", rel.Schema())}
	idx := engine.NewIndex(engine.Compile(rel), sigma)
	if idx == nil {
		t.Fatal("index not built")
	}
	// t6 (row 5) has phone 213/848-6677 -> candidate rows must be {4}.
	rows, ok := idx.CandidateRows(5, sigma)
	if !ok {
		t.Fatal("index did not cover the cluster")
	}
	if len(rows) != 1 || rows[0] != 4 {
		t.Errorf("candidate rows = %v, want [4]", rows)
	}
	// A tuple with a missing value on an LHS attribute contributes
	// nothing for that dependency (premise unsatisfiable).
	rows, ok = idx.CandidateRows(3, sigma) // t4's phone is missing
	if !ok || len(rows) != 0 {
		t.Errorf("unsatisfiable premise: rows = %v, ok = %v", rows, ok)
	}
}

// TestCandidateIndexThresholdProbe: unlike the retired threshold-0-only
// donor index, the generalized index also answers positive-threshold
// constraints (here via string length buckets), returning a sound
// superset of the rows that can satisfy the probed constraint.
func TestCandidateIndexThresholdProbe(t *testing.T) {
	rel := table2(t)
	sigma := rfd.Set{rfd.MustParse("Name(<=1) -> Phone(<=1)", rel.Schema())}
	v := engine.Compile(rel)
	idx := engine.NewIndex(v, sigma)
	if idx == nil {
		t.Fatal("index not built for threshold-only sigma")
	}
	name := rel.Schema().MustIndex("Name")
	for row := 0; row < rel.Len(); row++ {
		rows, ok := idx.CandidateRows(row, sigma)
		if !ok {
			continue // selectivity fallback is allowed, never wrong
		}
		member := make(map[int]bool, len(rows))
		for _, r := range rows {
			if r == row {
				t.Fatalf("row %d: candidate set contains the query row", row)
			}
			member[r] = true
		}
		// Soundness: every row satisfying the constraint is in the set.
		for j := 0; j < rel.Len(); j++ {
			if j == row {
				continue
			}
			if v.Within(name, row, j, 1) && !member[j] {
				t.Errorf("row %d: satisfying row %d missing from probe result", row, j)
			}
		}
	}
}

// TestCandidateIndexInsert: a committed imputation becomes probeable.
func TestCandidateIndexInsert(t *testing.T) {
	rel := table2(t)
	sigma := rfd.Set{rfd.MustParse("Name(<=8), Phone(<=0) -> City(<=9)", rel.Schema())}
	v := engine.Compile(rel)
	idx := engine.NewIndex(v, sigma)
	phone := rel.Schema().MustIndex("Phone")
	// Give t4 (row 3, missing phone) the shared Fenix phone; after Insert
	// it must show up in the equality probe from row 5.
	v.Set(3, phone, rel.Get(4, phone))
	idx.Insert(3, phone)
	rows, ok := idx.CandidateRows(5, sigma)
	if !ok {
		t.Fatal("index did not cover the cluster")
	}
	if len(rows) != 2 || rows[0] != 3 || rows[1] != 4 {
		t.Errorf("candidate rows after insert = %v, want [3 4]", rows)
	}
}

// TestIndexedImputeEquivalence: the index never changes results — on
// random instances and on the paper example, indexed and unindexed runs
// are bit-identical.
func TestIndexedImputeEquivalence(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	withIdx, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	without, err := New(sigma, WithoutIndex()).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if !withIdx.Relation.Equal(without.Relation) {
		t.Fatal("paper example: indexed run diverged")
	}

	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 120; trial++ {
		inst := randomInstance(rng)
		sg := randomSigma(rng, inst.Schema().Len())
		a, err := New(sg).Impute(inst)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(sg, WithoutIndex()).Impute(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Relation.Equal(b.Relation) {
			t.Fatalf("trial %d: indexed run diverged", trial)
		}
		if len(a.Imputations) != len(b.Imputations) {
			t.Fatalf("trial %d: imputation counts differ", trial)
		}
		for i := range a.Imputations {
			if a.Imputations[i] != b.Imputations[i] {
				t.Fatalf("trial %d: imputation %d differs:\n%+v\n%+v",
					trial, i, a.Imputations[i], b.Imputations[i])
			}
		}
	}
}

// TestIndexedSweepMatchesFullSweep is the donor index's contract: for
// every missing cell and every cluster of its attribute, the sweep
// restricted to the index's rows returns exactly the full sweep's
// candidates and Eq. 2 distances. It holds on the freshly built index
// and again after each imputation — a random donor value written into
// a missing cell — is inserted into it.
func TestIndexedSweepMatchesFullSweep(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(28))
	probes, candidates, inserts := 0, 0, 0
	for trial := 0; trial < 1000; trial++ {
		rel := randomMixedInstance(rng)
		sigma := randomSigmaLHS(rng, rel.Schema().Len())
		v := engine.Compile(rel.Clone())
		idx := engine.NewIndex(v, sigma)
		m := v.Matcher()
		im := New(sigma)
		check := func(stage string) {
			for _, cell := range v.Relation().MissingCells() {
				for _, cl := range im.clustersFor(sigma, cell.Attr) {
					rows, ok := idx.CandidateRows(cell.Row, cl.RFDs)
					if !ok {
						continue
					}
					probes++
					want := findCandidateTuples(ctx, m, nil, false, cell.Row, cell.Attr, cl.RFDs)
					got := findCandidateTuples(ctx, m, rows, true, cell.Row, cell.Attr, cl.RFDs)
					candidates += len(want)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d %s: cell %+v cluster %q: indexed sweep %v, full sweep %v (index rows %v)",
							trial, stage, cell, formatRules(cl.RFDs, rel.Schema()), got, want, rows)
					}
				}
			}
		}
		check("fresh index")
		for _, cell := range rel.MissingCells() {
			var donors []int
			for j := 0; j < v.Len(); j++ {
				if !v.IsNull(j, cell.Attr) {
					donors = append(donors, j)
				}
			}
			if len(donors) == 0 {
				continue
			}
			v.Set(cell.Row, cell.Attr, v.Value(donors[rng.Intn(len(donors))], cell.Attr))
			idx.Insert(cell.Row, cell.Attr)
			inserts++
			check("after insert")
		}
	}
	t.Logf("%d index-answered sweeps, %d candidates, %d inserts", probes, candidates, inserts)
	if probes == 0 || candidates == 0 || inserts == 0 {
		t.Fatal("the sweep never compared a non-empty indexed result after an insert; it proves nothing")
	}
}
