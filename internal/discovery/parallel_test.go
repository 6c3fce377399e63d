package discovery

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rfd"
)

var parityWorkerCounts = []int{1, 2, 4, 8}

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

// TestDiscoverWorkerParity: the discovered set (textual codec) and the
// rule_emitted trace stream are byte-identical for every worker count,
// on both the Table 2 sample and the Table 4 Restaurant workload.
func TestDiscoverWorkerParity(t *testing.T) {
	workloads := []struct {
		name string
		rel  *dataset.Relation
		cfg  Config
	}{
		{"table2", table2(t), Config{MaxThreshold: 6}},
		{"table2-maxlhs3", table2(t), Config{MaxThreshold: 9, MaxLHS: 3}},
		{"table2-keep-dominated", table2(t), Config{MaxThreshold: 6, KeepDominated: true}},
		{"table4", table4Relation(t), Config{MaxThreshold: 6}},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var refSet []byte
			var refEvents []obs.TraceEvent
			for _, workers := range parityWorkerCounts {
				cfg := wl.cfg
				cfg.Workers = workers
				tr := obs.NewRingTracer(0, 1)
				cfg.Tracer = tr
				sigma, err := Discover(wl.rel, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(sigma) == 0 {
					t.Fatalf("workers=%d discovered nothing", workers)
				}
				enc := encodeSet(t, sigma, wl.rel.Schema())
				events := ruleEvents(tr)
				if workers == parityWorkerCounts[0] {
					refSet, refEvents = enc, events
					continue
				}
				if !bytes.Equal(enc, refSet) {
					t.Errorf("workers=%d set differs from workers=%d:\n%s\nvs\n%s",
						workers, parityWorkerCounts[0], enc, refSet)
				}
				if len(events) != len(refEvents) {
					t.Fatalf("workers=%d emitted %d rule events, want %d",
						workers, len(events), len(refEvents))
				}
				for i, ev := range events {
					ref := refEvents[i]
					if ev.Kind != ref.Kind || ev.Attr != ref.Attr || ev.N != ref.N ||
						ev.Threshold != ref.Threshold || ev.Rules[0] != ref.Rules[0] {
						t.Errorf("workers=%d rule event %d = %+v, want %+v", workers, i, ev, ref)
					}
				}
			}
		})
	}
}

// TestDiscoverSampledParity: with MaxPairs forcing the sampled path,
// pair selection stays a single rng sequence, so the discovered set is
// worker-count independent for a fixed seed.
func TestDiscoverSampledParity(t *testing.T) {
	rel := table4Relation(t)
	var ref []byte
	for _, workers := range parityWorkerCounts {
		sigma, err := Discover(rel, Config{
			MaxThreshold: 6, MaxPairs: 500, Seed: 7, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		enc := encodeSet(t, sigma, rel.Schema())
		if workers == parityWorkerCounts[0] {
			ref = enc
			continue
		}
		if !bytes.Equal(enc, ref) {
			t.Errorf("sampled discovery differs at workers=%d", workers)
		}
	}
}

// TestDiscoverViewSharedCache: concurrent DiscoverView calls over one
// shared engine view (one distance cache) must race-cleanly produce the
// same set as a private view. Run under -race via `make race`.
func TestDiscoverViewSharedCache(t *testing.T) {
	rel := table4Relation(t)
	want, err := Discover(rel, Config{MaxThreshold: 6, Workers: 1})
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
			// Alternate worker counts so parallel searches overlap on the
			// shared cache shards.
			sigma, err := DiscoverView(v, Config{
				MaxThreshold: 6, Workers: 1 + g%4, Recorder: m,
			})
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
			t.Errorf("goroutine %d diverged from the serial private-view set", g)
		}
	}
	s := m.Snapshot()
	if s.Counters["discovery_workers"] == 0 || s.Counters["discovery_pattern_chunks"] == 0 {
		t.Errorf("parallel discovery counters not recorded: %+v", s.Counters)
	}
}

// TestMaintainerWorkerParity: the maintained set after a stream of
// arrivals is identical for every worker count.
func TestMaintainerWorkerParity(t *testing.T) {
	base := table2(t)
	sigma, err := Discover(base, Config{MaxThreshold: 9})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []dataset.Tuple{
		{dataset.NewString("Granite"), dataset.NewString("Malibu"), dataset.NewString("310/456-0000"), dataset.NewString("Californian"), dataset.NewInt(6)},
		{dataset.NewString("Citroen"), dataset.NewString("LA"), dataset.NewString("213/857-0034"), dataset.NewString("French"), dataset.NewInt(5)},
		{dataset.NewString("Fenix"), dataset.NewString("Hollywood"), dataset.NewString("213/848-6677"), dataset.NewString("French"), dataset.NewInt(4)},
		{dataset.NewString("C. Main"), dataset.NewString("Los Angeles"), dataset.NewString("213/857-0034"), dataset.NewString("French"), dataset.NewInt(5)},
	}
	var ref []byte
	var refDropped, refTightened int
	for _, workers := range parityWorkerCounts {
		mt := NewMaintainerWorkers(base, sigma, workers)
		for _, tpl := range arrivals {
			if _, _, err := mt.Append(tpl); err != nil {
				t.Fatal(err)
			}
		}
		enc := encodeSet(t, mt.Sigma(), base.Schema())
		d, tt := mt.Stats()
		if workers == parityWorkerCounts[0] {
			ref, refDropped, refTightened = enc, d, tt
			continue
		}
		if !bytes.Equal(enc, ref) {
			t.Errorf("maintained set differs at workers=%d", workers)
		}
		if d != refDropped || tt != refTightened {
			t.Errorf("workers=%d stats (%d, %d), want (%d, %d)", workers, d, tt, refDropped, refTightened)
		}
	}
}

// TestAdaptiveLimitsWorkerParity: the per-attribute caps are identical
// for every worker count, exhaustive and sampled.
func TestAdaptiveLimitsWorkerParity(t *testing.T) {
	rel := table4Relation(t)
	for _, maxPairs := range []int{0, 400} {
		ref := AdaptiveAttrLimits(rel, 0.25, maxPairs, 3)
		for _, workers := range parityWorkerCounts {
			got := AdaptiveAttrLimitsWorkers(rel, 0.25, maxPairs, 3, workers)
			for a := range ref {
				if got[a] != ref[a] {
					t.Errorf("maxPairs=%d workers=%d attr %d cap %v, want %v",
						maxPairs, workers, a, got[a], ref[a])
				}
			}
		}
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

// TestDiscoverRejectsNegativeWorkers: config validation covers the new
// knob.
func TestDiscoverRejectsNegativeWorkers(t *testing.T) {
	if _, err := Discover(table2(t), Config{MaxThreshold: 3, Workers: -1}); err == nil {
		t.Error("negative Workers accepted")
	}
}

func ExampleConfig_workers() {
	rel, _ := dataset.ReadCSVString("A,B\nx,1\nx,1\ny,2\ny,2\n")
	serial, _ := Discover(rel, Config{MaxThreshold: 0, Workers: 1})
	parallel, _ := Discover(rel, Config{MaxThreshold: 0, Workers: 8})
	fmt.Println(len(serial) == len(parallel))
	// Output: true
}
