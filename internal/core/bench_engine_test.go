package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rfd"
)

// engineBenchStrings is the string-heavy workload: Table 2 replicated
// into blocks (benchRelation), so the candidate scans are dominated by
// Levenshtein over a small set of repeated values — the case the
// engine's interning targets, where equal values short-circuit to 0.
func engineBenchStrings(tb testing.TB, blocks int) (*dataset.Relation, rfd.Set) {
	tb.Helper()
	rel := benchRelation(tb, blocks)
	return rel, figure1Sigma(tb, rel.Schema())
}

// engineBenchNumeric is the numeric-heavy workload: four correlated
// integer attributes with periodic structure and a missing C cell every
// tenth row, so candidate search is dominated by numeric range
// comparisons rather than string kernels.
func engineBenchNumeric(tb testing.TB, n int) (*dataset.Relation, rfd.Set) {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("A,B,C,D\n")
	for i := 0; i < n; i++ {
		a := i % 25
		bv := a*2 + i%3
		c := fmt.Sprintf("%d", a+40)
		if i%10 == 3 {
			c = ""
		}
		d := (i * 7) % 50
		fmt.Fprintf(&sb, "%d,%d,%s,%d\n", a, bv, c, d)
	}
	rel, err := dataset.ReadCSVString(sb.String())
	if err != nil {
		tb.Fatal(err)
	}
	sigma := rfd.Set{
		rfd.MustParse("A(<=1), B(<=2) -> C(<=2)", rel.Schema()),
		rfd.MustParse("D(<=0) -> C(<=3)", rel.Schema()),
	}
	return rel, sigma
}

// BenchmarkImputeEngine measures the end-to-end Impute hot path on the
// two workload shapes the evaluation engine optimizes. It uses only the
// public API, so it is directly comparable across the engine refactor
// (the before/after trajectory lives in EXPERIMENTS.md and
// BENCH_engine.json).
func BenchmarkImputeEngine(b *testing.B) {
	b.Run("strings", func(b *testing.B) {
		rel, sigma := engineBenchStrings(b, 40) // 200 tuples, 40 missing cells
		im := New(sigma)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := im.Impute(rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("numeric", func(b *testing.B) {
		rel, sigma := engineBenchNumeric(b, 400) // 400 tuples, 40 missing cells
		im := New(sigma)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := im.Impute(rel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBenchEngineJSON emits the engine bench trajectory: when
// BENCH_ENGINE_OUT names a file (e.g. BENCH_engine.json), both
// BenchmarkImputeEngine workloads are run via testing.Benchmark and
// written as JSON, alongside each run's imputations.
//
//	BENCH_ENGINE_OUT=BENCH_engine.json go test ./internal/core -run TestBenchEngineJSON
//
// Without BENCH_ENGINE_OUT the test is skipped, so the suite stays fast.
func TestBenchEngineJSON(t *testing.T) {
	out := os.Getenv("BENCH_ENGINE_OUT")
	if out == "" {
		t.Skip("set BENCH_ENGINE_OUT=<file> to emit engine benchmark JSON")
	}

	type workload struct {
		name string
		rel  *dataset.Relation
		deps rfd.Set
	}
	srel, ssigma := engineBenchStrings(t, 40)
	nrel, nsigma := engineBenchNumeric(t, 400)
	workloads := []workload{
		{"ImputeEngine/strings", srel, ssigma},
		{"ImputeEngine/numeric", nrel, nsigma},
	}

	var records []BenchRecord
	runStats := map[string]map[string]int{}
	for _, w := range workloads {
		im := New(w.deps)
		records = append(records, record(w.name, testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := im.Impute(w.rel); err != nil {
					b.Fatal(err)
				}
			}
		})))
		res, err := im.Impute(w.rel)
		if err != nil {
			t.Fatal(err)
		}
		runStats[w.name] = map[string]int{"imputed": res.Stats.Imputed}
	}

	doc, err := json.MarshalIndent(struct {
		Package    string                    `json:"package"`
		Benchmarks []BenchRecord             `json:"benchmarks"`
		RunStats   map[string]map[string]int `json:"run_stats"`
	}{Package: "repro/internal/core", Benchmarks: records, RunStats: runStats}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
	for _, r := range records {
		if r.NsPerOp <= 0 || r.Iterations == 0 {
			t.Errorf("suspicious benchmark record: %+v", r)
		}
	}
}
