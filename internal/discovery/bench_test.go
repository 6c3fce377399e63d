package discovery

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
)

// benchStringsRelation replicates Table 2 into a larger deterministic
// instance (the strings-heavy discovery workload: Levenshtein-dominated
// pattern materialization over repeated values, so interning has real
// reuse). Block suffixes keep Name values distinct across blocks.
func benchStringsRelation(tb testing.TB, blocks int) *dataset.Relation {
	tb.Helper()
	base := []string{
		"Granita %d,Malibu,310/456-0488,Californian,6",
		"Chinois Main %d,LA,310-392-9025,French,5",
		"Citrus %d,Los Angeles,213/857-0034,Californian,6",
		"Citrus %d,Los Angeles,213/857-0035,Californian,6",
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

// benchNumericRelation builds a numeric workload: four correlated
// integer attributes, so the lattice search is dominated by range
// comparisons rather than string distances.
func benchNumericRelation(tb testing.TB, n int) *dataset.Relation {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("A,B,C,D\n")
	for i := 0; i < n; i++ {
		a := i % 17
		fmt.Fprintf(&sb, "%d,%d,%d,%d\n", a, a*2+i%3, a+i%5, i%11)
	}
	rel, err := dataset.ReadCSVString(sb.String())
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// benchDiscover is one benchmarked discovery: the public pipeline
// (compile plus discover) pinned to one worker, so allocs/op do not
// depend on the host's CPU count.
func benchDiscover(tb testing.TB, rel *dataset.Relation, rec obs.Recorder) {
	cfg := Config{MaxThreshold: 6, Recorder: rec}
	if _, err := discover(context.Background(), engine.Compile(rel), cfg, 1, bandPairs); err != nil {
		tb.Fatal(err)
	}
}

// benchWorkload is one workload shape of the discovery benchmarks.
type benchWorkload struct {
	name string
	rel  *dataset.Relation
}

func benchWorkloads(tb testing.TB) []benchWorkload {
	return []benchWorkload{
		{"strings", benchStringsRelation(tb, 24)},  // 120 tuples, 7140 pairs
		{"numeric", benchNumericRelation(tb, 160)}, // 160 tuples, 12720 pairs
	}
}

// BenchmarkDiscover measures end-to-end discovery on the two workload
// shapes at one worker (the row names keep their historical
// workers=1 suffix).
func BenchmarkDiscover(b *testing.B) {
	for _, wl := range benchWorkloads(b) {
		b.Run(wl.name+"/workers=1", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDiscover(b, wl.rel, nil)
			}
		})
	}
}

// benchRecord is one benchmark's figures as serialized to
// BENCH_DISCOVERY_OUT (the shape BENCH_core.json uses), plus the
// deterministic peak pattern footprint where it is gated. benchdiff
// gates the ns/alloc figures and ignores the extra key.
type benchRecord struct {
	Name             string  `json:"name"`
	Iterations       int     `json:"iterations"`
	NsPerOp          float64 `json:"ns_per_op"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	BytesPerOp       int64   `json:"bytes_per_op"`
	PatternPeakBytes int64   `json:"pattern_peak_bytes,omitempty"`
}

// TestBenchDiscoveryJSON emits the discovery benchmark figures (both
// workloads at one worker) plus the host's CPU budget as JSON — the
// BENCH_discovery.json regression record:
//
//	BENCH_DISCOVERY_OUT=BENCH_discovery.json go test ./internal/discovery -run TestBenchDiscoveryJSON
//
// Without BENCH_DISCOVERY_OUT the test is skipped, so the suite stays
// fast. The strings row also carries the recorded peak pattern bytes,
// asserted to be at most half of the float64 matrix that fixture's
// patterns would fill.
func TestBenchDiscoveryJSON(t *testing.T) {
	out := os.Getenv("BENCH_DISCOVERY_OUT")
	if out == "" {
		t.Skip("set BENCH_DISCOVERY_OUT=<file> to emit benchmark JSON")
	}

	var records []benchRecord
	for _, wl := range benchWorkloads(t) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDiscover(b, wl.rel, nil)
			}
		})
		rec := benchRecord{
			Name:        "Discover/" + wl.name + "/workers=1",
			Iterations:  r.N,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if wl.name == "strings" {
			m := obs.NewMetrics()
			benchDiscover(t, wl.rel, m)
			rec.PatternPeakBytes = m.Counter(obs.CtrDiscoveryPatternPeakBytes)
			n := wl.rel.Len()
			matrix := int64(n*(n-1)/2) * int64(wl.rel.Schema().Len()) * 8
			if rec.PatternPeakBytes <= 0 || rec.PatternPeakBytes*2 > matrix {
				t.Errorf("%s peak %d pattern bytes, want in (0, %d], half of the %d-byte matrix",
					rec.Name, rec.PatternPeakBytes, matrix/2, matrix)
			}
		}
		records = append(records, rec)
	}

	doc, err := json.MarshalIndent(struct {
		Package    string        `json:"package"`
		GOMAXPROCS int           `json:"gomaxprocs"`
		Benchmarks []benchRecord `json:"benchmarks"`
	}{Package: "repro/internal/discovery", GOMAXPROCS: runtime.GOMAXPROCS(0), Benchmarks: records}, "", "  ")
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
