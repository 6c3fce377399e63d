package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
)

// BenchRecord is one benchmark's figures as serialized to BENCH_OUT.
type BenchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchRelation replicates Table 2 into a larger deterministic instance
// so the candidate sweep benchmark scans real donors. Row 3's Phone
// stays missing in every block.
func benchRelation(tb testing.TB, blocks int) *dataset.Relation {
	tb.Helper()
	base := []string{
		"Granita %d,Malibu,310/456-0488,Californian,6",
		"Chinois Main %d,LA,310-392-9025,French,5",
		"Citrus %d,Los Angeles,213/857-0034,Californian,6",
		"Citrus %d,Los Angeles,,Californian,6",
		"Fenix %d,Hollywood,213/848-6677,French,5",
	}
	var sb strings.Builder
	sb.WriteString("Name,City,Phone,Type,Class\n")
	for b := 0; b < blocks; b++ {
		for _, row := range base {
			fmt.Fprintf(&sb, row+"\n", b)
		}
	}
	rel, err := dataset.ReadCSVString(sb.String())
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// TestBenchJSON seeds the bench-regression trajectory: when BENCH_OUT
// names a file (e.g. BENCH_core.json), the three hot-path benchmarks —
// Impute, findCandidateTuples, Levenshtein — are run via
// testing.Benchmark and their ns/op and allocs/op written as JSON.
//
//	BENCH_OUT=BENCH_core.json go test ./internal/core -run TestBenchJSON
//
// Without BENCH_OUT the test is skipped, so the suite stays fast.
func TestBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("set BENCH_OUT=<file> to emit benchmark JSON")
	}

	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	im := New(sigma)

	big := benchRelation(t, 40) // 200 tuples
	bigSigma := figure1Sigma(t, big.Schema())
	clusters := New(bigSigma).clustersFor(bigSigma, big.Schema().MustIndex("Phone"))
	if len(clusters) == 0 {
		t.Fatal("no clusters for Phone")
	}
	deps := clusters[0].RFDs
	phone := big.Schema().MustIndex("Phone")

	records := []BenchRecord{
		record("Impute", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := im.Impute(rel); err != nil {
					b.Fatal(err)
				}
			}
		})),
		record("findCandidateTuples", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bigMatcher := engine.Compile(big).Matcher()
			bigMatcher.Keep(bigSigma)
			for i := 0; i < b.N; i++ {
				findCandidateTuples(context.Background(), bigMatcher, 3, phone, deps, nil)
			}
		})),
		record("Levenshtein", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				distance.Levenshtein("310/456-0488", "310-392-9025")
			}
		})),
	}

	doc, err := json.MarshalIndent(struct {
		Package    string        `json:"package"`
		Benchmarks []BenchRecord `json:"benchmarks"`
	}{Package: "repro/internal/core", Benchmarks: records}, "", "  ")
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

func record(name string, r testing.BenchmarkResult) BenchRecord {
	return BenchRecord{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}
