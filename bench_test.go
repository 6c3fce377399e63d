// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. 6) at the bench scale, plus the ablation and
// complexity-scaling studies from DESIGN.md and micro-benchmarks of the
// hot paths. Each experiment bench reports an experiment-specific metric
// alongside time and allocations; run the cmd/experiments CLI at -scale
// full for the paper-sized campaign.
//
//	go test -bench=. -benchmem
package renuver

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/impute/derand"
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	return experiments.NewEnv(experiments.BenchScale())
}

// BenchmarkTable3Stats regenerates Table 3: dataset statistics, RFDc
// counts per threshold limit, missing counts per rate.
func BenchmarkTable3Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		rows, err := experiments.Table3(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: RENUVER's P/R/F1 across
// threshold limits and missing rates on all four datasets. The mean F1
// over all cells is reported.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		cells, err := experiments.Figure2(env)
		if err != nil {
			b.Fatal(err)
		}
		f1 := 0.0
		for _, c := range cells {
			f1 += c.Metrics.F1
		}
		b.ReportMetric(f1/float64(len(cells)), "meanF1")
	}
}

// BenchmarkFigure3 regenerates Figure 3: the comparative evaluation of
// RENUVER vs Derand vs Holoclean (Restaurant) plus kNN (Glass).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		points, err := experiments.Figure3(env)
		if err != nil {
			b.Fatal(err)
		}
		var renuverF1, bestOtherF1 float64
		var nR, nO int
		for _, p := range points {
			if p.Method == "RENUVER" {
				renuverF1 += p.Metrics.F1
				nR++
			} else {
				bestOtherF1 += p.Metrics.F1
				nO++
			}
		}
		b.ReportMetric(renuverF1/float64(nR), "renuverF1")
		b.ReportMetric(bestOtherF1/float64(nO), "baselineF1")
	}
}

// BenchmarkTable4 regenerates Table 4: the Restaurant stress test across
// high missing rates under the scaled time/memory budget.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		rows, err := experiments.Table4(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable5 regenerates Table 5: the Physician stress test across
// tuple counts at 1% missing.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		rows, err := experiments.Table5(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkComplexityScaling is experiment X1: RENUVER wall clock on
// growing prefixes of the Restaurant dataset.
func BenchmarkComplexityScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := benchEnv(b)
		if _, err := experiments.ComplexityScaling(env); err != nil {
			b.Fatal(err)
		}
	}
}

// ablationBench measures one RENUVER variant on the Restaurant dataset
// at the bench scale and reports its F1.
func ablationBench(b *testing.B, opts ...core.Option) {
	env := benchEnv(b)
	rel, err := env.Dataset("restaurant")
	if err != nil {
		b.Fatal(err)
	}
	sigma, err := env.Sigma("restaurant", env.Scale.ComparisonThreshold)
	if err != nil {
		b.Fatal(err)
	}
	validator := experiments.Rules("restaurant")
	dirty, injected, err := eval.Inject(rel, 0.05, env.Scale.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var f1 float64
	for i := 0; i < b.N; i++ {
		res, err := core.New(sigma, opts...).Impute(dirty)
		if err != nil {
			b.Fatal(err)
		}
		f1 = eval.Score(res.Relation, injected, validator).F1
	}
	b.ReportMetric(f1, "F1")
}

// BenchmarkAblationBaseline is the paper-faithful configuration the
// ablations compare against.
func BenchmarkAblationBaseline(b *testing.B) { ablationBench(b) }

// BenchmarkAblationNoVerify is ablation A1: IS_FAULTLESS off.
func BenchmarkAblationNoVerify(b *testing.B) {
	ablationBench(b, core.WithVerifyMode(core.VerifyOff))
}

// BenchmarkAblationNoClustering is ablation A2: the Λ partition
// flattened into one cluster.
func BenchmarkAblationNoClustering(b *testing.B) {
	ablationBench(b, core.WithoutClustering())
}

// BenchmarkAblationNoRanking is ablation A3: candidates tried in row
// order instead of ascending distance.
func BenchmarkAblationNoRanking(b *testing.B) {
	ablationBench(b, core.WithoutRanking())
}

// BenchmarkAblationVerifyBothSides extends Algorithm 4 to RHS breaches.
func BenchmarkAblationVerifyBothSides(b *testing.B) {
	ablationBench(b, core.WithVerifyMode(core.VerifyBothSides))
}

// BenchmarkStreamAppend measures arrival-time imputation (the Sec. 7
// incremental extension): one tuple appended to a warm stream.
func BenchmarkStreamAppend(b *testing.B) {
	env := benchEnv(b)
	rel, err := env.Dataset("restaurant")
	if err != nil {
		b.Fatal(err)
	}
	sigma, err := env.Sigma("restaurant", 15)
	if err != nil {
		b.Fatal(err)
	}
	base := rel.Head(rel.Len() - 1)
	arrival := rel.Row(rel.Len() - 1).Clone()
	arrival[2] = Null // damage one cell
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.New(sigma).NewStream(base)
		if _, err := s.Append(arrival); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerandExactVsHeuristic measures the exact branch-and-bound
// (the ILP reference of [23]) against the instance the heuristic solves;
// the reported metric is the optimum's filled-cell count.
func BenchmarkDerandExactVsHeuristic(b *testing.B) {
	env := benchEnv(b)
	rel, err := env.Dataset("restaurant")
	if err != nil {
		b.Fatal(err)
	}
	small := rel.Head(40)
	sigma, err := env.SigmaFor(small, 15)
	if err != nil {
		b.Fatal(err)
	}
	dirty, _, err := eval.Inject(small, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	dr, err := derand.New(sigma, derand.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ex := derand.NewExact(dr, 50000)
	b.ResetTimer()
	var filled int
	for i := 0; i < b.N; i++ {
		out, err := ex.Impute(context.Background(), dirty)
		if err != nil {
			b.Fatal(err)
		}
		filled = dirty.CountMissing() - out.CountMissing()
	}
	b.ReportMetric(float64(filled), "optimumFilled")
}

// --- micro-benchmarks of the hot paths -----------------------------------

// BenchmarkImputeRestaurant measures one full RENUVER run at bench scale.
func BenchmarkImputeRestaurant(b *testing.B) {
	env := benchEnv(b)
	rel, err := env.Dataset("restaurant")
	if err != nil {
		b.Fatal(err)
	}
	sigma, err := env.Sigma("restaurant", 15)
	if err != nil {
		b.Fatal(err)
	}
	dirty, _, err := eval.Inject(rel, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(sigma).Impute(dirty); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscovery measures RFDc discovery on the bench Restaurant.
func BenchmarkDiscovery(b *testing.B) {
	env := benchEnv(b)
	rel, err := env.Dataset("restaurant")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.SigmaFor(rel, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistancePattern measures the per-pair pattern computation
// that dominates both discovery and candidate generation.
func BenchmarkDistancePattern(b *testing.B) {
	env := benchEnv(b)
	rel, err := env.Dataset("restaurant")
	if err != nil {
		b.Fatal(err)
	}
	p := distance.NewPattern(rel.Schema().Len())
	t0, t1 := rel.Row(0), rel.Row(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distance.PatternInto(p, t0, t1)
	}
}
