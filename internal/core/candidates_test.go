package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rfd"
)

// TestCandidateSearchEqualityPremise: with one rule whose premise needs
// an equal phone, the only candidate of t6's City is t5, the one other
// tuple with t6's phone, scored with Eq. 2; t4, whose phone is missing,
// can satisfy no premise and has no candidate.
func TestCandidateSearchEqualityPremise(t *testing.T) {
	rel := table2(t)
	sigma := rfd.Set{rfd.MustParse("Name(<=8), Phone(<=0) -> City(<=9)", rel.Schema())}
	m := engine.Compile(rel).Matcher()
	defer m.Release()
	m.Keep(sigma)
	city := rel.Schema().MustIndex("City")
	got := findCandidateTuples(context.Background(), m, 5, city, sigma, nil)
	// Name "Fenix Argyle" against "Fenix" is 7 edits, Phone 0.
	if want := []candidate{{row: 4, dist: 3.5}}; !reflect.DeepEqual(got, want) {
		t.Errorf("candidates of t6[City] = %v, want %v", got, want)
	}
	if got := findCandidateTuples(context.Background(), m, 3, city, sigma, nil); len(got) != 0 {
		t.Errorf("t4 has no phone, yet candidates %v", got)
	}
}

// TestCandidateSearchSeesWrite: a value written into a cell reaches the
// next search of the same matcher, whose kept columns were filled
// before the write.
func TestCandidateSearchSeesWrite(t *testing.T) {
	rel := table2(t)
	sigma := rfd.Set{rfd.MustParse("Phone(<=0) -> City(<=9)", rel.Schema())}
	v := engine.Compile(rel)
	m := v.Matcher()
	defer m.Release()
	m.Keep(sigma)
	city, phone := rel.Schema().MustIndex("City"), rel.Schema().MustIndex("Phone")
	ctx := context.Background()
	if got := findCandidateTuples(ctx, m, 5, city, sigma, nil); len(got) != 1 {
		t.Fatalf("before the write: candidates %v, want t5 alone", got)
	}
	// Give t4 (row 3, missing phone) the shared Fenix phone.
	v.Set(3, phone, rel.Get(4, phone))
	got := findCandidateTuples(ctx, m, 5, city, sigma, nil)
	if want := []candidate{{row: 3}, {row: 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("candidates after the write = %v, want %v", got, want)
	}
}

// TestColumnSearchMatchesPairSweep is the column candidate search's
// contract: for every missing cell and every cluster of its attribute,
// findCandidateTuples returns exactly the per-pair sweep's candidates
// and Eq. 2 distances. It holds on single-relation, donor-pool and
// two-tier views; on a Σ with a NaN, +Inf or 1e19 threshold, which the
// per-pair fallback answers; after each random write — a donor value
// written into a missing cell — read through the one matcher whose
// columns were kept before it; and on a matcher the pool hands back for
// a second view of the same length and write counts.
func TestColumnSearchMatchesPairSweep(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(28))
	var sweeps, candidates, writes, literal, pooled int
	for trial := 0; trial < 1000; trial++ {
		rel := randomMixedInstance(rng)
		schema := rel.Schema()
		sigma := randomSigmaLHS(rng, schema.Len())
		if trial%8 == 0 && len(sigma) > 0 {
			dep := sigma[rng.Intn(len(sigma))]
			lhs := append([]rfd.Constraint(nil), dep.LHS...)
			lhs[rng.Intn(len(lhs))].Threshold = []float64{math.NaN(), math.Inf(1), 1e19}[trial/8%3]
			sigma = append(sigma, rfd.MustNew(lhs, dep.RHS))
		}
		im := New(sigma)
		var v *engine.View
		switch trial % 3 {
		case 0:
			v = engine.Compile(rel.Clone())
		case 1:
			v = engine.CompileWithDonors(rel.Clone(), []*dataset.Relation{
				randomMixedRows(rng, schema, rng.Intn(90)), randomMixedRows(rng, schema, rng.Intn(40)),
			})
		default:
			v = engine.Precompile(randomMixedRows(rng, schema, 1+rng.Intn(120))).Extend(rel.Clone())
		}
		// checkRow compares both searches from query row q for every
		// cluster of attrs.
		checkRow := func(stage string, m *engine.Matcher, q int, attrs ...int) {
			for _, a := range attrs {
				for _, cl := range im.clustersFor(sigma, a) {
					got := findCandidateTuples(ctx, m, q, a, cl.RFDs, nil)
					want := candidatesLiteral(ctx, m, q, a, cl.RFDs, nil)
					sweeps++
					candidates += len(want)
					if !exactLHS(cl.RFDs) {
						literal++
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d %s: row %d attr %d cluster %q: column search %v, per-pair sweep %v",
							trial, stage, q, a, formatRules(cl.RFDs, schema), got, want)
					}
				}
			}
		}
		all := make([]int, schema.Len())
		for a := range all {
			all[a] = a
		}
		checkCells := func(stage string, m *engine.Matcher) {
			for _, cell := range v.Relation().MissingCells() {
				checkRow(stage, m, cell.Row, cell.Attr)
			}
		}

		m := v.Matcher()
		m.Keep(sigma)
		checkCells("fresh", m)
		q := rng.Intn(v.TargetLen())
		checkRow("fresh", m, q, all...)
		m.Release()

		// A second view of the same length and write counts, its rows
		// reversed, on the matcher the pool hands back; no Keep, which
		// would drop kept columns by itself.
		rev := dataset.NewRelation(schema)
		for j := v.Len() - 1; j >= 0; j-- {
			tu := make(dataset.Tuple, schema.Len())
			for a := range tu {
				tu[a] = v.Value(j, a)
			}
			rev.MustAppend(tu)
		}
		m2 := engine.Compile(rev).Matcher()
		checkRow("pooled", m2, q, all...)
		pooled++
		m2.Release()

		m = v.Matcher()
		m.Keep(sigma)
		for _, cell := range v.Relation().MissingCells() {
			var donors []int
			for j := 0; j < v.Len(); j++ {
				if !v.IsNull(j, cell.Attr) {
					donors = append(donors, j)
				}
			}
			if len(donors) == 0 {
				continue
			}
			checkRow("before write", m, cell.Row, all...)
			v.Set(cell.Row, cell.Attr, v.Value(donors[rng.Intn(len(donors))], cell.Attr))
			writes++
			checkRow("after write", m, cell.Row, all...)
			checkCells("after write", m)
		}
		m.Release()
	}
	t.Logf("%d sweeps (%d per-pair), %d candidates, %d writes, %d pooled views", sweeps, literal, candidates, writes, pooled)
	if candidates == 0 || writes == 0 || literal == 0 {
		t.Fatal("the searches never compared candidates, a write or the per-pair fallback; they prove nothing")
	}
}

// randomMixedRows draws n tuples of a randomMixedInstance schema.
func randomMixedRows(rng *rand.Rand, schema *dataset.Schema, n int) *dataset.Relation {
	rel := dataset.NewRelation(schema)
	for i := 0; i < n; i++ {
		rel.MustAppend(randomMixedTuple(rng, schema))
	}
	return rel
}
