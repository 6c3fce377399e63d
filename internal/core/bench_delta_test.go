package core

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/dataset"
)

// benchSteadyDelta builds the steady-state mutation for iteration i
// over an n-row instance: one cell rewrite, one delete, one insert of
// the deleted row's values — the row count is invariant, so row handles
// stay valid across any number of applications and every ApplyDelta
// iteration does the same amount of work (build, revalidate two rows).
func benchSteadyDelta(rel *dataset.Relation, i, n int) Delta {
	victim := i % n
	donor := (i*7 + 1) % n
	return Delta{
		Updates: []CellUpdate{{Row: (i*13 + 3) % n, Attr: 1, Value: rel.Row(donor)[1]}},
		Deletes: []int{victim},
		Inserts: []dataset.Tuple{rel.Row(donor).Clone()},
	}
}

// BenchmarkApplyDelta measures the writer half of a live session: one
// epoch publication — successor build, Σ revalidation over the changed
// rows, snapshot swap — on a 200-tuple instance.
func BenchmarkApplyDelta(b *testing.B) {
	base := benchRelation(b, 40) // 200 tuples
	sigma := figure1Sigma(b, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		b.Fatal(err)
	}
	n := base.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ApplyDelta(context.Background(), benchSteadyDelta(base, i, n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImputeUnderDeltas measures the per-request cost of a session
// whose base is being rolled: every iteration applies one steady-state
// delta and then serves one imputation against the fresh epoch. The
// spread over BenchmarkSessionImpute is the price of serving live data
// instead of a frozen snapshot (epoch pin/unpin plus the cold donor
// rows each delta introduces).
func BenchmarkImputeUnderDeltas(b *testing.B) {
	base := benchRelation(b, 40)
	sigma := figure1Sigma(b, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		b.Fatal(err)
	}
	req := sessionRequest(b)
	n := base.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ApplyDelta(context.Background(), benchSteadyDelta(base, i, n)); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Impute(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchDeltaJSON emits the live-session trajectory: with
// BENCH_DELTA_OUT set, both delta benchmarks run via testing.Benchmark
// and land as JSON next to the other BENCH_*.json baselines, plus the
// steady-state imputation figure for the overhead ratio.
//
//	BENCH_DELTA_OUT=BENCH_delta.json go test ./internal/core -run TestBenchDeltaJSON
//
// Without BENCH_DELTA_OUT the test is skipped, so the suite stays fast.
func TestBenchDeltaJSON(t *testing.T) {
	out := os.Getenv("BENCH_DELTA_OUT")
	if out == "" {
		t.Skip("set BENCH_DELTA_OUT=<file> to emit delta benchmark JSON")
	}
	apply := testing.Benchmark(BenchmarkApplyDelta)
	under := testing.Benchmark(BenchmarkImputeUnderDeltas)
	// The frozen-session comparator over the SAME 200-tuple base (the
	// package's SessionImpute benchmark serves a 1000-tuple pool and is
	// not comparable).
	base := benchRelation(t, 40)
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	req := sessionRequest(t)
	steady := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Impute(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc, err := json.MarshalIndent(struct {
		Package    string        `json:"package"`
		Workload   string        `json:"workload"`
		Benchmarks []BenchRecord `json:"benchmarks"`
		// LiveOverhead is (delta+impute) ns relative to a frozen-session
		// impute; the delta publication itself is the dominant term.
		LiveOverhead float64 `json:"live_overhead"`
	}{
		Package:  "repro/internal/core",
		Workload: "200-tuple base; per-op delta = 1 update + 1 delete + 1 insert (row count invariant)",
		Benchmarks: []BenchRecord{
			record("ApplyDelta", apply),
			record("ImputeUnderDeltas", under),
			record("FrozenSessionImpute", steady),
		},
		LiveOverhead: float64(under.NsPerOp()) / float64(steady.NsPerOp()),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
	for _, r := range []testing.BenchmarkResult{apply, under, steady} {
		if r.NsPerOp() <= 0 || r.N == 0 {
			t.Errorf("suspicious benchmark result: %+v", r)
		}
	}
}
