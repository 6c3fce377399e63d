package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
)

// TestTable4EngineCrossConfigParity guards the evaluation-engine
// rewiring on the Table 4 workload: RENUVER on the injected Restaurant
// dataset must impute identically whether candidate search runs through
// the generalized index or the full sweep — the engine layers are pure
// optimizations, so any divergence here is a correctness bug, not
// drift.
func TestTable4EngineCrossConfigParity(t *testing.T) {
	env := benchEnv()
	rel, err := env.Dataset("restaurant")
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := env.SigmaFor(rel, env.Scale.Thresholds[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.10, 0.30} {
		injRel, _, err := eval.Inject(rel, rate, env.Scale.Seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.New(sigma).Impute(injRel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.New(sigma, core.WithoutIndex()).Impute(injRel)
		if err != nil {
			t.Fatalf("rate %.0f%% no-index: %v", rate*100, err)
		}
		if !ref.Relation.Equal(res.Relation) {
			t.Errorf("rate %.0f%% no-index: imputed relation diverged", rate*100)
		}
		if len(ref.Imputations) != len(res.Imputations) {
			t.Fatalf("rate %.0f%% no-index: %d imputations vs %d",
				rate*100, len(res.Imputations), len(ref.Imputations))
		}
		for i := range ref.Imputations {
			if ref.Imputations[i] != res.Imputations[i] {
				t.Errorf("rate %.0f%% no-index: imputation %d differs:\n%+v\n%+v",
					rate*100, i, res.Imputations[i], ref.Imputations[i])
			}
		}
	}
}
