package discovery

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// table4Relation is the Table 4 stress workload: the synthetic
// Restaurant integration with its near-duplicate structure, at a size
// that keeps the exhaustive pattern space testable.
func table4Relation(t testing.TB) *dataset.Relation {
	t.Helper()
	rel, err := datagen.ByName("restaurant", 120, 2022)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// encodeSet renders a discovered set through the textual codec — the
// byte-level identity the parity tests assert.
func encodeSet(t *testing.T, sigma rfd.Set, schema *dataset.Schema) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rfd.WriteSet(&buf, sigma, schema); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ruleEvents flattens a tracer's cells into the rule_emitted sequence.
func ruleEvents(tr *obs.RingTracer) []obs.TraceEvent {
	var out []obs.TraceEvent
	for _, cell := range tr.Cells() {
		out = append(out, cell...)
	}
	return out
}

// parityWorkers x parityBands is the grid of the pipeline's two
// parameters that the determinism tests walk: bands of one pair, of
// seven (so worker chunks and bands end mid-row), of bandPairs, and one
// band covering every pair. A band is the shard of the pair list that
// is materialized and encoded before the next one starts.
var (
	parityWorkers = []int{1, 2, 4}
	parityBands   = []int{1, 7, bandPairs, math.MaxInt32}
)

// parityRun is one discovery's byte-level identity: the set through the
// textual codec and its rule_emitted stream.
type parityRun struct {
	set    []byte
	events []obs.TraceEvent
}

// tracedRun runs one discovery with a fresh tracer set in cfg and
// captures its identity.
func tracedRun(t *testing.T, rel *dataset.Relation, cfg Config, run func(Config) (rfd.Set, error)) parityRun {
	t.Helper()
	tr := obs.NewRingTracer(0, 1)
	cfg.Tracer = tr
	sigma, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) == 0 {
		t.Fatal("discovered nothing")
	}
	return parityRun{encodeSet(t, sigma, rel.Schema()), ruleEvents(tr)}
}

// assertSameRun fails unless got is byte-identical to ref.
func assertSameRun(t *testing.T, label string, got, ref parityRun) {
	t.Helper()
	if !bytes.Equal(got.set, ref.set) {
		t.Errorf("%s set differs from the reference:\n%s\nvs\n%s", label, got.set, ref.set)
	}
	if len(got.events) != len(ref.events) {
		t.Fatalf("%s emitted %d rule events, want %d", label, len(got.events), len(ref.events))
	}
	for i, ev := range got.events {
		r := ref.events[i]
		if ev.Kind != r.Kind || ev.Attr != r.Attr || ev.N != r.N ||
			ev.Threshold != r.Threshold || ev.Rules[0] != r.Rules[0] {
			t.Errorf("%s rule event %d = %+v, want %+v", label, i, ev, r)
		}
	}
}

// assertGridParity: every cell of the workers x band-size grid of the
// unexported entry point gives the set and rule_emitted stream of the
// cell workers=1 band=1. Each cell compiles its own view.
func assertGridParity(t *testing.T, rel *dataset.Relation, cfg Config) {
	t.Helper()
	var ref parityRun
	for _, workers := range parityWorkers {
		for _, band := range parityBands {
			got := tracedRun(t, rel, cfg, func(c Config) (rfd.Set, error) {
				return discover(context.Background(), engine.Compile(rel), c, workers, band)
			})
			if ref.set == nil {
				ref = got
				continue
			}
			assertSameRun(t, fmt.Sprintf("workers=%d band=%d", workers, band), got, ref)
		}
	}
}

// assertProcsParity: public Discover, which sizes its pipeline by
// GOMAXPROCS, runs that many workers and gives the same set and
// rule_emitted stream at every GOMAXPROCS in parityWorkers. It changes
// the process-wide setting and restores it, so no caller is parallel.
func assertProcsParity(t *testing.T, rel *dataset.Relation, cfg Config) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref parityRun
	for _, procs := range parityWorkers {
		runtime.GOMAXPROCS(procs)
		m := obs.NewMetrics()
		got := tracedRun(t, rel, cfg, func(c Config) (rfd.Set, error) {
			c.Recorder = m
			return Discover(rel, c)
		})
		if w := m.Counter(obs.CtrDiscoveryWorkers); w != int64(procs) {
			t.Errorf("GOMAXPROCS=%d ran %d workers", procs, w)
		}
		if ref.set == nil {
			ref = got
			continue
		}
		assertSameRun(t, fmt.Sprintf("GOMAXPROCS=%d", procs), got, ref)
	}
}

// parityWorkload is one row of the determinism tables.
type parityWorkload struct {
	name string
	rel  *dataset.Relation
	cfg  Config
}

// TestDiscoverWorkerParity: public Discover gives the same set and
// rule_emitted stream at GOMAXPROCS 1, 2 and 4, on Table 2 under three
// configs and on the Table 4 Restaurant workload. Not parallel.
func TestDiscoverWorkerParity(t *testing.T) {
	for _, wl := range []parityWorkload{
		{"table2", table2(t), Config{MaxThreshold: 6}},
		{"table2-maxlhs3", table2(t), Config{MaxThreshold: 9, MaxLHS: 3}},
		{"table2-keep-dominated", table2(t), Config{MaxThreshold: 6, KeepDominated: true}},
		{"table4", table4Relation(t), Config{MaxThreshold: 6}},
	} {
		t.Run(wl.name, func(t *testing.T) { assertProcsParity(t, wl.rel, wl.cfg) })
	}
}

// TestDiscoverSampledParity: with MaxPairs forcing the sampled path,
// pair selection stays a single rng sequence, so public Discover gives
// the same set at every GOMAXPROCS for a fixed seed. Not parallel.
func TestDiscoverSampledParity(t *testing.T) {
	assertProcsParity(t, table4Relation(t), Config{MaxThreshold: 6, MaxPairs: 500, Seed: 7})
}

// TestDiscoverShardParity: the discovered set (textual codec) and the
// rule_emitted trace stream are byte-identical in every cell of the
// workers x band-size grid of the unexported entry point, on Table 2
// and on the Table 4 Restaurant workload.
func TestDiscoverShardParity(t *testing.T) {
	for _, wl := range []parityWorkload{
		{"table2", table2(t), Config{MaxThreshold: 6}},
		{"table2-maxlhs3", table2(t), Config{MaxThreshold: 9, MaxLHS: 3}},
		{"table2-keep-dominated", table2(t), Config{MaxThreshold: 6, KeepDominated: true}},
		{"table4", table4Relation(t), Config{MaxThreshold: 6}},
		{"table4-maxlhs3", table4Relation(t), Config{MaxThreshold: 9, MaxLHS: 3}},
	} {
		t.Run(wl.name, func(t *testing.T) { assertGridParity(t, wl.rel, wl.cfg) })
	}
}

// TestDiscoverShardSampledParity: with MaxPairs set, the pipeline bands
// the sampler's pair list, so the grid is byte-identical on the sampled
// path too.
func TestDiscoverShardSampledParity(t *testing.T) {
	assertGridParity(t, table4Relation(t), Config{MaxThreshold: 6, MaxPairs: 500, Seed: 7})
}

// TestAdaptiveLimitsWorkerParity: the per-attribute caps are the ones
// public AdaptiveAttrLimits returns in every cell of the workers x
// band-size grid, exhaustive and sampled.
func TestAdaptiveLimitsWorkerParity(t *testing.T) {
	rel := table4Relation(t)
	for _, maxPairs := range []int{0, 400} {
		ref := AdaptiveAttrLimits(rel, 0.25, maxPairs, 3)
		for _, workers := range parityWorkers {
			for _, band := range parityBands {
				got := adaptiveAttrLimits(rel, 0.25, maxPairs, 3, workers, band)
				for a := range ref {
					if got[a] != ref[a] {
						t.Errorf("maxPairs=%d workers=%d band=%d attr %d cap %v, want %v",
							maxPairs, workers, band, a, got[a], ref[a])
					}
				}
			}
		}
	}
}

// TestDiscoverViewSharedCache: concurrent DiscoverView calls over one
// shared engine view must race-cleanly produce the same set as a
// private view. Run under -race via `make race`.
func TestDiscoverViewSharedCache(t *testing.T) {
	rel := table4Relation(t)
	want, err := Discover(rel, Config{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := encodeSet(t, want, rel.Schema())

	v := engine.Compile(rel)
	m := obs.NewMetrics()
	const goroutines = 6
	results := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sigma, err := DiscoverView(v, Config{MaxThreshold: 6, Recorder: m})
			if err != nil {
				errs[g] = err
				return
			}
			var buf bytes.Buffer
			if err := rfd.WriteSet(&buf, sigma, rel.Schema()); err != nil {
				errs[g] = err
				return
			}
			results[g] = buf.Bytes()
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(results[g], wantEnc) {
			t.Errorf("goroutine %d diverged from the private-view set", g)
		}
	}
	s := m.Snapshot()
	if s.Counters["discovery_workers"] == 0 || s.Counters["discovery_pattern_chunks"] == 0 {
		t.Errorf("parallel discovery counters not recorded: %+v", s.Counters)
	}
}

// TestPairAt: the flat pair-index decoding matches the serial double
// loop for every index.
func TestPairAt(t *testing.T) {
	const n = 9
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gi, gj := pairAt(n, k)
			if gi != i || gj != j {
				t.Fatalf("pairAt(%d, %d) = (%d, %d), want (%d, %d)", n, k, gi, gj, i, j)
			}
			k++
		}
	}
}

// chunkRanges collects the ranges runChunks hands out, in chunk order.
func chunkRanges(n, workers int) [][2]int {
	got := make([][2]int, max(1, workers))
	count := runChunks(workers, n, func(chunk, lo, hi int) {
		got[chunk] = [2]int{lo, hi}
	})
	return got[:count]
}

func TestChunkRanges(t *testing.T) {
	cases := []struct {
		n, workers int
		wantChunks int
	}{
		{10, 3, 3},
		{10, 1, 1},
		{3, 8, 3},
		{0, 4, 0},
		{7, 0, 1},
	}
	for _, c := range cases {
		if got := chunkRanges(c.n, c.workers); len(got) != c.wantChunks {
			t.Errorf("runChunks(%d,%d) ran %v, want %d chunks", c.workers, c.n, got, c.wantChunks)
		}
	}
}

// TestChunkRangesCover: chunking always tiles [0, n) exactly, in order.
func TestChunkRangesCover(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 10, 100} {
		for _, w := range []int{0, 1, 2, 3, 4, 8, 200} {
			next := 0
			for _, rg := range chunkRanges(n, w) {
				if rg[0] != next || rg[1] <= rg[0] {
					t.Fatalf("runChunks(%d, %d) ran bad range %v", w, n, rg)
				}
				next = rg[1]
			}
			if next != n {
				t.Fatalf("runChunks(%d, %d) covers [0, %d), want [0, %d)", w, n, next, n)
			}
		}
	}
}
