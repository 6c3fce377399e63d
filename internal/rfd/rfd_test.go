package rfd

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
)

// table2 builds the paper's Table 2 sample instance.
func table2(t testing.TB) *dataset.Relation {
	t.Helper()
	rel, err := dataset.ReadCSVString(`Name,City,Phone,Type,Class
Granita,Malibu,310/456-0488,Californian,6
Chinois Main,LA,310-392-9025,French,5
Citrus,Los Angeles,213/857-0034,Californian,6
Citrus,Los Angeles,,Californian,6
Fenix,Hollywood,213/848-6677,,5
Fenix Argyle,,213/848-6677,French (new),5
C. Main,Los Angeles,,French,5
`)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// figure1RFDs returns φ1..φ7 from Figure 1 of the paper, parsed against
// the Table 2 schema.
func figure1RFDs(t testing.TB, schema *dataset.Schema) Set {
	t.Helper()
	specs := []string{
		"Name(<=8), Phone(<=0), Class(<=1) -> Type(<=0)", // φ1
		"Class(<=0) -> Type(<=5)",                        // φ2
		"City(<=2) -> Phone(<=2)",                        // φ3
		"Name(<=4) -> Phone(<=1)",                        // φ4
		"Name(<=8), Phone(<=0) -> City(<=9)",             // φ5
		"Name(<=6), City(<=9) -> Phone(<=0)",             // φ6
		"Phone(<=1) -> Class(<=0)",                       // φ7
	}
	var out Set
	for _, s := range specs {
		out = append(out, MustParse(s, schema))
	}
	return out
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		lhs  []Constraint
		rhs  Constraint
	}{
		{"empty LHS", nil, Constraint{Attr: 0}},
		{"dup LHS attr", []Constraint{{Attr: 1}, {Attr: 1}}, Constraint{Attr: 0}},
		{"attr both sides", []Constraint{{Attr: 0}}, Constraint{Attr: 0}},
		{"negative LHS threshold", []Constraint{{Attr: 1, Threshold: -1}}, Constraint{Attr: 0}},
		{"negative RHS threshold", []Constraint{{Attr: 1}}, Constraint{Attr: 0, Threshold: -2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.lhs, c.rhs); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestNewNormalizesLHSOrder(t *testing.T) {
	r := MustNew([]Constraint{{Attr: 3, Threshold: 1}, {Attr: 1, Threshold: 2}}, Constraint{Attr: 0})
	if got := r.LHSAttrs(); got[0] != 1 || got[1] != 3 {
		t.Errorf("LHSAttrs = %v, want sorted", got)
	}
	if !r.HasLHSAttr(3) || r.HasLHSAttr(0) {
		t.Error("HasLHSAttr wrong")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	rel := table2(t)
	for _, r := range figure1RFDs(t, rel.Schema()) {
		text := r.Format(rel.Schema())
		back, err := Parse(text, rel.Schema())
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if !back.Equal(r) {
			t.Errorf("round trip changed %q", text)
		}
	}
}

func TestParseErrors(t *testing.T) {
	rel := table2(t)
	bad := []string{
		"",
		"Name(<=1)",                        // no arrow
		"Name(<=1) -> City(<=1) -> X(<=1)", // two arrows
		"Bogus(<=1) -> City(<=1)",          // unknown attribute
		"Name -> City(<=1)",                // missing parens
		"Name(<=x) -> City(<=1)",           // bad threshold
		"Name(<=1) -> Name(<=1)",           // same attr both sides
	}
	for _, s := range bad {
		if _, err := Parse(s, rel.Schema()); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseWithoutOperatorPrefix(t *testing.T) {
	rel := table2(t)
	r, err := Parse("Name(4) -> Phone(1.5)", rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if r.LHS[0].Threshold != 4 || r.RHS.Threshold != 1.5 {
		t.Errorf("thresholds = %v, %v", r.LHS[0].Threshold, r.RHS.Threshold)
	}
}

func TestLHSSatisfiedByPaperExample46(t *testing.T) {
	// Example 4.6: under φ: Phone(<=0) -> City(<=10), the only candidate
	// for t6[City] is t5 (equal phone numbers).
	rel := table2(t)
	phi := MustParse("Phone(<=0) -> City(<=10)", rel.Schema())
	t6 := rel.Row(5)
	var matches []int
	for i := 0; i < rel.Len(); i++ {
		if i == 5 {
			continue
		}
		p := distance.PatternBetween(t6, rel.Row(i))
		if phi.LHSSatisfiedBy(p) {
			matches = append(matches, i)
		}
	}
	if len(matches) != 1 || matches[0] != 4 {
		t.Errorf("candidates via LHS = %v, want [4] (t5)", matches)
	}
}

func TestViolationPaperExample44(t *testing.T) {
	// Example 4.4: imputing t7[Phone] with t1[Phone] violates
	// Phone(<=0) -> City(<=10) via the pair (t1, t7).
	rel := table2(t)
	phi := MustParse("Phone(<=0) -> City(<=10)", rel.Schema())
	phone := rel.Schema().MustIndex("Phone")
	rel.Set(6, phone, rel.Get(0, phone))
	p := distance.PatternBetween(rel.Row(0), rel.Row(6))
	if !phi.ViolatedBy(p) {
		t.Errorf("pattern %v should violate φ0", p)
	}
	if phi.HoldsOn(rel) {
		t.Error("φ0 should no longer hold after the bad imputation")
	}
}

func TestViolatedByMissingRHSIsNotWitness(t *testing.T) {
	rel := table2(t)
	phi := MustParse("Phone(<=0) -> City(<=10)", rel.Schema())
	// t5 and t6 share a phone; t6[City] is missing -> no violation witness.
	p := distance.PatternBetween(rel.Row(4), rel.Row(5))
	if !phi.LHSSatisfiedBy(p) {
		t.Fatal("t5,t6 should satisfy Phone(<=0)")
	}
	if phi.ViolatedBy(p) {
		t.Error("missing RHS must not witness a violation")
	}
}

func TestIsKeyDefinition(t *testing.T) {
	rel := table2(t)
	// Tightened φ1 (Name <= 6) is key: (t5,t6) has Name distance 7.
	tight := MustParse("Name(<=6), Phone(<=0), Class(<=1) -> Type(<=0)", rel.Schema())
	if !tight.IsKey(rel) {
		t.Error("tightened φ1 should be key on Table 2")
	}
	// The paper's φ1 (Name <= 8) is NOT key by Definition 3.4: the pair
	// (t5,t6) satisfies its LHS (Name distance 7, equal phones, equal
	// classes). Example 5.2's prose overlooks this pair; we assert the
	// computed truth.
	loose := MustParse("Name(<=8), Phone(<=0), Class(<=1) -> Type(<=0)", rel.Schema())
	if loose.IsKey(rel) {
		t.Error("φ1 with Name<=8 is not key: pair (t5,t6) satisfies LHS")
	}
	// φ2 is not key: (t3,t4) share Class.
	phi2 := MustParse("Class(<=0) -> Type(<=5)", rel.Schema())
	if phi2.IsKey(rel) {
		t.Error("φ2 should not be key")
	}
}

func TestKeyBecomesNonKeyAfterImputation(t *testing.T) {
	// Example 5.1: imputing t4[Phone] from t3 turns a key-RFDc into a
	// non-key one. Use the tightened variant that is actually key first.
	rel := table2(t)
	tight := MustParse("Name(<=6), Phone(<=0), Class(<=1) -> Type(<=0)", rel.Schema())
	if !tight.IsKey(rel) {
		t.Fatal("precondition: tightened φ1 key")
	}
	phone := rel.Schema().MustIndex("Phone")
	rel.Set(3, phone, rel.Get(2, phone))
	if tight.IsKey(rel) {
		t.Error("after imputing t4[Phone]=t3[Phone], (t3,t4) satisfies the LHS")
	}
}

func TestHoldsOnSkipsMissingLHS(t *testing.T) {
	rel := table2(t)
	// City(<=0) -> Phone(<=0): t3,t4 share City but t4 phone missing -> no
	// witness; t3,t7 share City, phones missing -> no witness. Pairs with
	// different cities don't trigger. t4,t7 share City, both phones
	// missing -> no witness. So it holds.
	phi := MustParse("City(<=0) -> Phone(<=0)", rel.Schema())
	if !phi.HoldsOn(rel) {
		t.Error("φ should hold: no witnessed violation")
	}
}

func TestSetNonKeysAndForRHS(t *testing.T) {
	rel := table2(t)
	sigma := figure1RFDs(t, rel.Schema())
	nonKeys := sigma.NonKeys(rel)
	// Only the tightened variant would be key; all seven here are non-key
	// by Definition 3.4 (see TestIsKeyDefinition).
	if len(nonKeys) != 7 {
		t.Errorf("NonKeys = %d RFDs, want 7", len(nonKeys))
	}
	phone := rel.Schema().MustIndex("Phone")
	phoneRFDs := sigma.ForRHS(phone)
	if len(phoneRFDs) != 3 { // φ3, φ4, φ6
		t.Errorf("ForRHS(Phone) = %d, want 3", len(phoneRFDs))
	}
}

func TestClusterByRHSThreshold(t *testing.T) {
	rel := table2(t)
	sigma := figure1RFDs(t, rel.Schema())
	phone := rel.Schema().MustIndex("Phone")
	clusters := ClusterByRHSThreshold(sigma.ForRHS(phone))
	// φ6 (th 0), φ4 (th 1), φ3 (th 2) -> three clusters ascending.
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(clusters))
	}
	for i, wantTh := range []float64{0, 1, 2} {
		if clusters[i].Threshold != wantTh {
			t.Errorf("cluster %d threshold = %v, want %v", i, clusters[i].Threshold, wantTh)
		}
		if len(clusters[i].RFDs) != 1 {
			t.Errorf("cluster %d size = %d", i, len(clusters[i].RFDs))
		}
	}
}

func TestClusterGroupsEqualThresholds(t *testing.T) {
	rel := table2(t)
	a := MustParse("Name(<=1) -> Phone(<=2)", rel.Schema())
	b := MustParse("City(<=1) -> Phone(<=2)", rel.Schema())
	c := MustParse("Class(<=1) -> Phone(<=0)", rel.Schema())
	clusters := ClusterByRHSThreshold(Set{a, b, c})
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
	if clusters[0].Threshold != 0 || len(clusters[0].RFDs) != 1 {
		t.Errorf("cluster 0 = %+v", clusters[0])
	}
	if clusters[1].Threshold != 2 || len(clusters[1].RFDs) != 2 {
		t.Errorf("cluster 1 = %+v", clusters[1])
	}
}

// TestClusterNaNThresholds: a NaN RHS threshold equals nothing, so each
// such dependency is a cluster of its own; those clusters come first, in
// set order, on every call.
func TestClusterNaNThresholds(t *testing.T) {
	rel := table2(t)
	a := MustParse("Name(<=1) -> Phone(<=2)", rel.Schema())
	b := MustParse("Class(<=1) -> Phone(<=0)", rel.Schema())
	n1 := MustNew(a.LHS, Constraint{Attr: a.RHS.Attr, Threshold: math.NaN()})
	n2 := MustNew(b.LHS, Constraint{Attr: b.RHS.Attr, Threshold: math.NaN()})
	for run := 0; run < 20; run++ {
		clusters := ClusterByRHSThreshold(Set{a, n1, b, n2})
		var got []*RFD
		for _, c := range clusters {
			if len(c.RFDs) != 1 {
				t.Fatalf("run %d: cluster %+v, want one member each", run, c)
			}
			got = append(got, c.RFDs[0])
		}
		if want := []*RFD{n1, n2, b, a}; !slices.Equal(got, want) {
			t.Fatalf("run %d: cluster order %v, want %v", run, got, want)
		}
	}
}

func TestSetHoldsOnAndContains(t *testing.T) {
	rel := table2(t)
	holds := Set{MustParse("City(<=0) -> Phone(<=0)", rel.Schema())}
	if !holds.HoldsOn(rel) {
		t.Error("set should hold")
	}
	violated := Set{MustParse("Class(<=0) -> Type(<=5)", rel.Schema())}
	// (t2, t6): equal Class, Type distance("French","French (new)") = 6 > 5.
	if violated.HoldsOn(rel) {
		t.Error("φ2 is violated by (t2,t6) on Table 2")
	}
	if !holds.Contains(holds[0]) {
		t.Error("Contains missed a member")
	}
	if holds.Contains(violated[0]) {
		t.Error("Contains matched a non-member")
	}
}

func TestRFDEqual(t *testing.T) {
	rel := table2(t)
	a := MustParse("Name(<=4) -> Phone(<=1)", rel.Schema())
	b := MustParse("Name(<=4) -> Phone(<=1)", rel.Schema())
	c := MustParse("Name(<=5) -> Phone(<=1)", rel.Schema())
	d := MustParse("Name(<=4), City(<=2) -> Phone(<=1)", rel.Schema())
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Equal misbehaves")
	}
}
