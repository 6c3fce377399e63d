package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// randomMixedInstance builds a small random relation over string, int,
// float and bool columns: float columns also hold int cells, strings
// are near-duplicates of one another, and any cell may be null.
func randomMixedInstance(rng *rand.Rand) *dataset.Relation {
	kinds := []dataset.Kind{dataset.KindString, dataset.KindInt, dataset.KindFloat, dataset.KindBool}
	m := 2 + rng.Intn(4) // 2-5 attributes
	attrs := make([]dataset.Attribute, m)
	for a := range attrs {
		attrs[a] = dataset.Attribute{Name: fmt.Sprintf("A%d", a), Kind: kinds[rng.Intn(len(kinds))]}
	}
	rel := dataset.NewRelation(dataset.NewSchema(attrs...))
	n := 3 + rng.Intn(14)
	for i := 0; i < n; i++ {
		rel.MustAppend(randomMixedTuple(rng, rel.Schema()))
	}
	return rel
}

// randomMixedTuple draws one tuple of randomMixedInstance's schema.
func randomMixedTuple(rng *rand.Rand, schema *dataset.Schema) dataset.Tuple {
	words := []string{"abc", "abd", "abcd", "xbc", "ab", "abce", "bca", "zzz"}
	t := make(dataset.Tuple, schema.Len())
	for a := range t {
		if rng.Float64() < 0.2 {
			continue // null
		}
		switch schema.Attr(a).Kind {
		case dataset.KindString:
			t[a] = dataset.NewString(words[rng.Intn(len(words))])
		case dataset.KindInt:
			t[a] = dataset.NewInt(int64(rng.Intn(6)))
		case dataset.KindFloat:
			if rng.Intn(2) == 0 {
				t[a] = dataset.NewInt(int64(rng.Intn(4)))
			} else {
				t[a] = dataset.NewFloat(float64(rng.Intn(8)) * 0.5)
			}
		case dataset.KindBool:
			t[a] = dataset.NewBool(rng.Intn(2) == 0)
		}
	}
	return t
}

// randomThreshold draws mostly small grid thresholds, fractional ones
// included, and now and then one outside the range where a string
// bound converts to an int exactly.
func randomThreshold(rng *rand.Rand) float64 {
	if rng.Float64() < 0.03 {
		return []float64{math.Inf(1), 1e19, math.NaN()}[rng.Intn(3)]
	}
	return []float64{0, 0, 0.5, 1, 1, 1.5, 2, 3}[rng.Intn(8)]
}

// randomSigmaLHS builds a random Σ whose dependencies have 1-3 LHS
// attributes.
func randomSigmaLHS(rng *rand.Rand, m int) rfd.Set {
	var sigma rfd.Set
	for k := 1 + rng.Intn(6); k > 0; k-- {
		rhs := rng.Intn(m)
		var lhs []rfd.Constraint
		for _, a := range rng.Perm(m) {
			if a != rhs && len(lhs) < 3 && (len(lhs) == 0 || rng.Intn(2) == 0) {
				lhs = append(lhs, rfd.Constraint{Attr: a, Threshold: randomThreshold(rng)})
			}
		}
		dep, err := rfd.New(lhs, rfd.Constraint{Attr: rhs, Threshold: randomThreshold(rng)})
		if err != nil {
			continue
		}
		sigma = append(sigma, dep)
	}
	return sigma
}

// TestVerifyPlanMatchesAlgorithm4: for every missing cell and every
// donor value on its attribute, the cell's verify plan — built once and
// reused for each value, buffers carried from cell to cell — reaches
// the literal Algorithm 4 scan's verdict under every verify mode.
func TestVerifyPlanMatchesAlgorithm4(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(25))
	states := map[planState]int{}
	verdicts := map[bool]int{}
	for trial := 0; trial < 1500; trial++ {
		rel := randomMixedInstance(rng)
		sigma := randomSigmaLHS(rng, rel.Schema().Len())
		for _, mode := range []VerifyMode{VerifyLHS, VerifyBothSides, VerifyOff} {
			im := New(sigma, WithVerifyMode(mode))
			v := engine.Compile(rel.Clone())
			m := v.Matcher()
			var plan verifyPlan
			for _, cell := range rel.MissingCells() {
				plan.reset(cell.Row, cell.Attr)
				for j := 0; j < rel.Len(); j++ {
					if j == cell.Row || v.IsNull(j, cell.Attr) {
						continue
					}
					v.Set(cell.Row, cell.Attr, v.Value(j, cell.Attr))
					want, _, _ := im.isFaultlessWitness(ctx, m, cell.Row, cell.Attr, sigma)
					got := plan.faultless(ctx, im, m, sigma)
					v.Set(cell.Row, cell.Attr, dataset.Null)
					if got != want {
						t.Fatalf("trial %d mode %d cell %+v donor %d: plan says %v, Algorithm 4 says %v\nsigma: %q",
							trial, mode, cell, j, got, want, formatRules(sigma, rel.Schema()))
					}
					if plan.state == planArmed {
						verdicts[got]++
					}
				}
				states[plan.state]++
			}
		}
	}
	t.Logf("cells per plan state %v, armed verdicts %v", states, verdicts)
	// The sweep must exercise every plan state and both verdicts of an
	// armed plan, or it proves nothing.
	for _, s := range []planState{planArmed, planEmpty, planLiteral} {
		if states[s] == 0 {
			t.Errorf("no cell ended in plan state %d (states %v)", s, states)
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("armed plans gave verdicts %v, want both", verdicts)
	}
}

// TestVerifyPlanWholeRunCars: on the clean_cars input, an untraced run
// (every cell verified through its plan) and a run that traces every
// cell (every candidate verified by the literal scan) agree on the
// imputations, the output CSV and every Stats counter except the engine
// cache counters and the phase times.
func TestVerifyPlanWholeRunCars(t *testing.T) {
	if testing.Short() {
		t.Skip("full Cars workload")
	}
	if raceEnabled {
		// One goroutine compares two outputs; the fully traced run takes
		// minutes under the race detector and exercises no concurrency.
		t.Skip("single-goroutine equality check; skipped under -race")
	}
	dirty, _, err := eval.Inject(datagen.Cars(406, 1), 0.20, 4)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := discovery.Discover(dirty, discovery.Config{MaxThreshold: 15, MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...Option) (*Result, []byte, obs.Snapshot) {
		t.Helper()
		rec := obs.NewMetrics()
		res, err := New(sigma, append(opts, WithRecorder(rec))...).Impute(dirty)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := dataset.WriteCSV(&csv, res.Relation); err != nil {
			t.Fatal(err)
		}
		return res, csv.Bytes(), rec.Snapshot()
	}
	planned, plannedCSV, plannedSnap := run()
	traced, tracedCSV, tracedSnap := run(WithTracer(obs.NewRingTracer(dirty.CountMissing(), 1)))

	if !reflect.DeepEqual(planned.Imputations, traced.Imputations) {
		t.Fatalf("imputations diverge: %d planned vs %d literal", len(planned.Imputations), len(traced.Imputations))
	}
	if !bytes.Equal(plannedCSV, tracedCSV) {
		t.Fatal("output CSV diverges")
	}
	exempt := func(s Stats) Stats {
		s.EngineCacheHits, s.EngineCacheMisses = 0, 0
		s.Phases = PhaseTimes{}
		return s
	}
	if a, b := exempt(planned.Stats), exempt(traced.Stats); !reflect.DeepEqual(a, b) {
		t.Fatalf("Stats diverge:\n planned: %+v\n literal: %+v", a, b)
	}
	if planned.Stats.FaultlessChecks == 0 || planned.Stats.VerifyRejections == 0 {
		t.Fatalf("workload verified nothing: %+v", planned.Stats)
	}
	if n := plannedSnap.Counters["verify_plans"]; n == 0 || plannedSnap.Counters["verify_armed_rows"] == 0 {
		t.Errorf("untraced run planned %d cells, armed %d rows; want both > 0",
			n, plannedSnap.Counters["verify_armed_rows"])
	}
	if n := tracedSnap.Counters["verify_plans"]; n != 0 {
		t.Errorf("fully traced run planned %d cells, want 0", n)
	}
}

// TestVerifyPlanMultiWord is TestVerifyPlanMatchesAlgorithm4 on
// instances that span several 64-row words of the plan's bitsets, for a
// sample of cells and donors.
func TestVerifyPlanMultiWord(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(28))
	armed := 0
	for trial := 0; trial < 40; trial++ {
		rel := randomMixedInstance(rng)
		for n := 65 + rng.Intn(250); rel.Len() < n; {
			rel.MustAppend(randomMixedTuple(rng, rel.Schema()))
		}
		sigma := randomSigmaLHS(rng, rel.Schema().Len())
		cells := rel.MissingCells()
		rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		for _, mode := range []VerifyMode{VerifyLHS, VerifyBothSides} {
			im := New(sigma, WithVerifyMode(mode))
			v := engine.Compile(rel.Clone())
			m := v.Matcher()
			var plan verifyPlan
			for _, cell := range cells[:min(len(cells), 4)] {
				plan.reset(cell.Row, cell.Attr)
				for k := 0; k < 12; k++ {
					j := rng.Intn(rel.Len())
					if j == cell.Row || v.IsNull(j, cell.Attr) {
						continue
					}
					v.Set(cell.Row, cell.Attr, v.Value(j, cell.Attr))
					want, _, _ := im.isFaultlessWitness(ctx, m, cell.Row, cell.Attr, sigma)
					got := plan.faultless(ctx, im, m, sigma)
					v.Set(cell.Row, cell.Attr, dataset.Null)
					if got != want {
						t.Fatalf("trial %d mode %d cell %+v donor %d: plan says %v, Algorithm 4 says %v\nsigma: %q",
							trial, mode, cell, j, got, want, formatRules(sigma, rel.Schema()))
					}
				}
				if plan.state == planArmed {
					armed++
				}
			}
		}
	}
	if armed == 0 {
		t.Fatal("no armed plan on a multi-word instance")
	}
}
