package main

// Harness self-test: tiny, fixed-seed runs of every workload in both
// modes must emit every metric BENCHMARK.json names, with its unit, and
// the correctness checks must catch corrupted output.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// renuverBin is the CLI under test, built once for the package.
var renuverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	renuverBin = filepath.Join(dir, "renuver")
	if out, err := exec.Command("go", "build", "-o", renuverBin, "repro/cmd/renuver").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building renuver: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var workloads = []string{"clean_cars", "serve_restaurant", "serve_live"}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace,
		renuver: renuverBin, state: t.TempDir(), tiny: true}
}

type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestTablesMatchBenchmarkJSON keeps the metric tables in main.go and
// BENCHMARK.json in step.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloads)
	}
	var e2e, layers []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end\n json: %v\n code: %v", e2e, endToEnd)
	}
	if fmt.Sprint(layers) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer\n json: %v\n code: %v", layers, perLayer)
	}
}

// TestWorkloadsEmitEveryMetric runs each workload tiny in both modes.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				cfg := tinyConfig(t, w, trace)
				res, err := run(context.Background(), cfg, currentEnvironment(cfg))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil {
					t.Fatal(err)
				}
				if len(keys) != 4 {
					t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
				}
			})
		}
	}
}

// TestTracedRunConfirmsHotLayers checks that each workload stresses the
// layer it was chosen for: verify dominates core on clean_cars, key-RFDc
// preprocess on serve_restaurant.
func TestTracedRunConfirmsHotLayers(t *testing.T) {
	phases := []string{"core.preprocess_us", "core.verify_us", "core.candidate_search_us",
		"core.ranking_us", "core.key_reeval_us"}
	for w, hot := range map[string]string{"clean_cars": "core.verify_us", "serve_restaurant": "core.preprocess_us"} {
		cfg := tinyConfig(t, w, true)
		res, err := run(context.Background(), cfg, currentEnvironment(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range phases {
			if res.Metrics[p].Value > res.Metrics[hot].Value {
				t.Errorf("%s: %s = %v exceeds %s = %v", w, p, res.Metrics[p].Value, hot, res.Metrics[hot].Value)
			}
		}
	}
}

func TestCorruptedResponseIsCaught(t *testing.T) {
	cfg := tinyConfig(t, "serve_restaurant", false)
	cfg.corrupt = true
	res, err := run(context.Background(), cfg, currentEnvironment(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("one corrupted reply: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}

// TestQualityScoresServedTuples checks that the serve quality metrics
// come from what the server returned, not from the in-process replay.
func TestQualityScoresServedTuples(t *testing.T) {
	in, err := makeServeInputs(config{seed: 7, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{in: in, schema: in.base.Schema(), served: make([]dataset.Tuple, len(in.requests))}
	for i, r := range in.requests {
		truth := r.tuple.Clone()
		truth[r.blank] = r.truth
		h.served[i] = truth
	}
	out := newOutcome()
	h.scoreServed(out)
	if out.values["f1"] != 1 || len(out.problems) != 0 {
		t.Fatalf("truth served: f1 %v, problems %v", out.values["f1"], out.problems)
	}

	for i, r := range in.requests {
		h.served[i] = r.tuple // every blank left unimputed
	}
	out = newOutcome()
	h.scoreServed(out)
	if out.values["recall"] != 0 || len(out.problems) != 1 {
		t.Fatalf("nothing imputed: recall %v, problems %v", out.values["recall"], out.problems)
	}
}

func TestCleanOutputCheck(t *testing.T) {
	in, err := makeCleanInputs(config{seed: 7, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, in.clean); err != nil {
		t.Fatal(err)
	}
	m, err := checkCleanOutput(buf.Bytes(), in)
	if err != nil || m.F1 != 1 {
		t.Fatalf("ground truth as output: F1 %v, err %v", m.F1, err)
	}

	swapped := in.clean.Clone()
	r0, r1 := swapped.Row(0).Clone(), swapped.Row(1).Clone()
	for a := range r0 {
		swapped.Set(0, a, r1[a])
		swapped.Set(1, a, r0[a])
	}
	buf.Reset()
	if err := dataset.WriteCSV(&buf, swapped); err != nil {
		t.Fatal(err)
	}
	if _, err := checkCleanOutput(buf.Bytes(), in); err == nil {
		t.Error("reordered rows passed the check")
	}
}
