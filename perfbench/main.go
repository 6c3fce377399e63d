// Command perfbench is the repository's end-to-end benchmark. It drives
// the real user surfaces — the renuver CLI and `renuver serve` over
// loopback HTTP — with inputs generated from a seed, checks every output,
// and prints the metrics of one workload:
//
//	perfbench -renuver <binary> -workload clean_cars -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of an untraced run. With
// -trace 1 it replays the same inputs in-process with spans around the
// calls into each layer, writes the spans to a JSONL file, and prints the
// per-layer metrics folded from that file. The last line of standard
// output is always the JSON result; perfbench/run.sh builds both binaries
// from the checkout and runs this command. See README.md for the
// workloads and what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/distance"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	renuver  string // the CLI binary under test
	state    string // directory for inputs, outputs and the spans file
	tiny     bool   // tiny inputs; only the harness self-test sets it
	// corrupt flips one byte of one served response before it is
	// checked; the self-test uses it to prove the check catches it.
	corrupt bool
}

// metricDef is a metric's name and unit; the tables below mirror
// BENCHMARK.json (the self-test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a -trace 0 run. The op_* latencies are
// the timed operation of each workload: one CLI clean on clean_cars, a
// single-tuple /v1/impute on serve_restaurant and a /v1/delta on
// serve_live.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"tuples_per_s", "tuples/s"},
	{"f1", "ratio"},
	{"precision", "ratio"},
	{"recall", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"cpu_us_per_tuple", "us"},
}

// perLayer are the metrics of a -trace 1 run, named after the internal/
// package (or the serve command, or the benchmark itself) they measure.
// Counts and times are means per call of that layer.
var perLayer = []metricDef{
	{"core.impute_us", "us"},
	{"core.preprocess_us", "us"},
	{"core.key_rfds", "count"},
	{"core.verify_us", "us"},
	{"core.faultless_checks", "count"},
	{"core.verify_rejections", "count"},
	{"core.candidate_search_us", "us"},
	{"core.donors_scanned", "count"},
	{"core.index_hits", "count"},
	{"core.index_misses", "count"},
	{"core.ranking_us", "us"},
	{"core.candidates_evaluated", "count"},
	{"core.key_reeval_us", "us"},
	{"core.accept_ratio", "ratio"},
	{"core.delta_apply_us", "us"},
	{"core.delta_build_us", "us"},
	{"core.delta_revalidate_us", "us"},
	{"core.delta_index_us", "us"},
	{"core.delta_sigma_dropped", "count"},
	{"core.delta_sigma_tightened", "count"},
	{"core.delta_index_rebuilt_ratio", "ratio"},
	{"core.delta_cache_shards_invalidated", "count"},
	{"engine.precompile_ms", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.cache_misses", "count"},
	{"engine.index_probes", "count"},
	{"distance.levenshtein_calls", "count"},
	{"distance.myers_share", "ratio"},
	{"distance.early_exit_ratio", "ratio"},
	{"discovery.discover_ms", "ms"},
	{"discovery.materialize_ms", "ms"},
	{"discovery.search_ms", "ms"},
	{"discovery.patterns", "count"},
	{"rfd.sigma_size", "count"},
	{"rfd.sigma_size_end", "count"},
	{"artifact.compile_ms", "ms"},
	{"artifact.load_ms", "ms"},
	{"artifact.bytes", "bytes"},
	{"dataset.read_csv_ms", "ms"},
	{"dataset.write_csv_ms", "ms"},
	{"serve.overhead_us", "us"},
	{"serve.queue_wait_us", "us"},
	{"serve.rejected", "count"},
	{"serve.read_p50_ms", "ms"},
	{"serve.read_p99_ms", "ms"},
	{"bench.generator_lag_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	opSamples int               // printed above the result line, not in it
}

// outcome collects what a workload measured before it becomes a result.
type outcome struct {
	attempted, failed int
	// problems are failed checks that are not per-operation failures
	// (nondeterministic output, Σ drift); any one makes correct false.
	problems []string
	values   map[string]float64
	// opSamples is how many timed operations op_p50_ms and op_p95_ms
	// rest on.
	opSamples int
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check counts one checked operation and records a failure when ok is
// false.
func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result renders the outcome under the metric table of the run's mode.
func (o *outcome) result(defs []metricDef) (*result, error) {
	res := &result{
		Correct:   o.failed == 0 && len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
		opSamples: o.opSamples,
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// environment is the record of where a result was measured.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"levenshtein_kernel"`
	Commit     string `json:"commit"`
}

func currentEnvironment(cfg config) environment {
	return environment{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Kernel:     distance.ActiveKernel().String(),
		Commit:     gitCommit(),
	}
}

// gitCommit names the commit under test, or "unknown" outside a git
// work tree (a plain source export has no history to ask).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: clean_cars, serve_restaurant or serve_live")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced replay")
	flag.StringVar(&cfg.renuver, "renuver", "", "renuver binary under test (required)")
	flag.StringVar(&cfg.state, "state", ".perfbench", "directory for inputs, outputs and spans")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.renuver == "" || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	env := currentEnvironment(cfg)
	res, err := run(ctx, cfg, env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("environment %s\n", envLine)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-40s %16.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if !cfg.trace {
		fmt.Printf("%-40s %16d samples\n", "op_p50_ms/op_p95_ms over", res.opSamples)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload in a fresh work directory under cfg.state.
func run(ctx context.Context, cfg config, env environment) (*result, error) {
	if err := os.MkdirAll(cfg.state, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.state, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	spansPath := filepath.Join(cfg.state, "spans",
		fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))

	var out *outcome
	switch {
	case cfg.workload == "clean_cars" && !cfg.trace:
		out, err = benchClean(ctx, cfg, work)
	case cfg.workload == "clean_cars":
		out, err = traceClean(ctx, cfg, work, env, spansPath)
	case (cfg.workload == "serve_restaurant" || cfg.workload == "serve_live") && !cfg.trace:
		out, err = benchServe(ctx, cfg, work)
	case cfg.workload == "serve_restaurant" || cfg.workload == "serve_live":
		out, err = traceServe(ctx, cfg, work, env, spansPath)
	default:
		return nil, fmt.Errorf("unknown workload %q (want clean_cars, serve_restaurant or serve_live)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if cfg.trace {
		return out.result(perLayer)
	}
	return out.result(endToEnd)
}
