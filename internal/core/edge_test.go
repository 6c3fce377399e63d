package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/rfd"
)

func TestAllNullTupleImputable(t *testing.T) {
	// A tuple missing every value: patterns against it are all "_", so no
	// premise is ever satisfied — every cell must stay missing and
	// nothing may panic.
	rel, err := dataset.ReadCSVString("A,B\nx,1\ny,2\n_,_\n")
	if err != nil {
		t.Fatal(err)
	}
	sigma := rfd.Set{rfd.MustParse("A(<=0) -> B(<=0)", rel.Schema())}
	res, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Imputed != 0 || res.Stats.Unimputed != 2 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestAllCellsMissingInstance(t *testing.T) {
	rel, err := dataset.ReadCSVString("A,B\n_,_\n_,_\n")
	if err != nil {
		t.Fatal(err)
	}
	sigma := rfd.Set{rfd.MustParse("A(<=0) -> B(<=0)", rel.Schema())}
	res, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Imputed != 0 {
		t.Errorf("imputed %d with no donors at all", res.Stats.Imputed)
	}
}

func TestEmptyRelation(t *testing.T) {
	rel := dataset.NewRelation(dataset.NewSchema(
		dataset.Attribute{Name: "A", Kind: dataset.KindString},
		dataset.Attribute{Name: "B", Kind: dataset.KindInt},
	))
	sigma := rfd.Set{rfd.MustParse("A(<=0) -> B(<=0)", rel.Schema())}
	res, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != 0 || res.Stats.MissingCells != 0 {
		t.Errorf("empty relation mishandled: %+v", res.Stats)
	}
}

func TestOptionCombination(t *testing.T) {
	// Every option together must still reproduce a well-formed run.
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	res, err := New(sigma,
		WithClusterOrder(DescendingThreshold),
		WithVerifyMode(VerifyBothSides),
		WithoutClustering(),
		WithoutRanking(),
		WithoutKeyReevaluation(),
		WithMaxCandidates(2),
	).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Imputed+s.Unimputed != s.MissingCells {
		t.Errorf("stats inconsistent under full option stack: %+v", s)
	}
	if s.CandidatesTried != s.Imputed+s.VerifyRejections {
		t.Errorf("candidate accounting broken: %+v", s)
	}
}

func TestDuplicateRFDsInSigma(t *testing.T) {
	// Σ with duplicated dependencies must behave like the deduplicated
	// set (clusters just contain the duplicate; candidates identical).
	rel := table2(t)
	dep := rfd.MustParse("Name(<=6), City(<=9) -> Phone(<=0)", rel.Schema())
	dup := rfd.Set{dep, dep, dep}
	a, err := New(dup).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(rfd.Set{dep}).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Relation.Equal(b.Relation) {
		t.Error("duplicate dependencies changed the outcome")
	}
}

func TestSingleTupleRelation(t *testing.T) {
	rel, err := dataset.ReadCSVString("A,B\nx,\n")
	if err != nil {
		t.Fatal(err)
	}
	sigma := rfd.Set{rfd.MustParse("A(<=0) -> B(<=0)", rel.Schema())}
	res, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Imputed != 0 {
		t.Error("imputed with a single tuple (no possible donor)")
	}
}

func TestImputedValueKindMatchesColumn(t *testing.T) {
	// The imputed value is copied from a donor, so its kind always
	// matches the column's (numeric widening included).
	rel, err := dataset.ReadCSVString("K,N\nk,1.5\nk,\n")
	if err != nil {
		t.Fatal(err)
	}
	sigma := rfd.Set{rfd.MustParse("K(<=0) -> N(<=100)", rel.Schema())}
	res, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Relation.Get(1, 1)
	if got.IsNull() {
		t.Fatal("not imputed")
	}
	if !got.Kind().Numeric() {
		t.Errorf("imputed kind = %v", got.Kind())
	}
	if got.Float() != 1.5 {
		t.Errorf("imputed %v, want 1.5", got.Float())
	}
}

func TestZeroThresholdBooleanAttr(t *testing.T) {
	rel, err := dataset.ReadCSVString("F,V\ntrue,a\ntrue,\nfalse,b\n")
	if err != nil {
		t.Fatal(err)
	}
	sigma := rfd.Set{rfd.MustParse("F(<=0) -> V(<=0)", rel.Schema())}
	res, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Relation.Get(1, 1); got.Str() != "a" {
		t.Errorf("boolean-keyed imputation = %v, want a", got)
	}
}
