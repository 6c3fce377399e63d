package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// TestTable4EngineCrossConfigParity guards the evaluation engine on the
// Table 4 workload: RENUVER on the injected Restaurant dataset must
// impute identically however its matcher was used before. Each rate is
// imputed twice, the second time after a run on the other rate's
// instance — a view of the same length, so the pooled matcher's kept
// columns, were any left behind, could pass for valid. The engine
// layers are pure optimizations, so any divergence here is a
// correctness bug, not drift.
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
	rates := []float64{0.10, 0.30}
	inj := make([]*dataset.Relation, len(rates))
	refs := make([]*core.Result, len(rates))
	for k, rate := range rates {
		if inj[k], _, err = eval.Inject(rel, rate, env.Scale.Seed); err != nil {
			t.Fatal(err)
		}
		if refs[k], err = core.New(sigma).Impute(inj[k]); err != nil {
			t.Fatal(err)
		}
	}
	for k, rate := range rates {
		ref := refs[k]
		res, err := core.New(sigma).Impute(inj[k])
		if err != nil {
			t.Fatalf("rate %.0f%% rerun: %v", rate*100, err)
		}
		if !ref.Relation.Equal(res.Relation) {
			t.Errorf("rate %.0f%% rerun: imputed relation diverged", rate*100)
		}
		if len(ref.Imputations) != len(res.Imputations) {
			t.Fatalf("rate %.0f%% rerun: %d imputations vs %d",
				rate*100, len(res.Imputations), len(ref.Imputations))
		}
		for i := range ref.Imputations {
			if ref.Imputations[i] != res.Imputations[i] {
				t.Errorf("rate %.0f%% rerun: imputation %d differs:\n%+v\n%+v",
					rate*100, i, res.Imputations[i], ref.Imputations[i])
			}
		}
	}
}
