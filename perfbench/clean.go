package main

// The clean_cars workload: offline one-shot cleaning, the paper's own
// setting. The renuver CLI runs as a subprocess on a dirty Cars CSV and
// its output CSV is checked and scored.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// cleanThreshold is the discovery threshold limit the CLI runs with.
const cleanThreshold = 15

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

func benchClean(ctx context.Context, cfg config, work string) (*outcome, error) {
	out := newOutcome()
	dirtyPath := filepath.Join(work, "dirty.csv")
	var in *cleanInputs
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if in, err = makeCleanInputs(cfg); err != nil {
			return nil, err
		}
		if err := dataset.WriteCSVFile(dirtyPath, in.dirty); err != nil {
			return nil, err
		}
		if err := cleanWarmUp(ctx, cfg, work, in.dirty); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.values["setup_s"] = median(setups)

	n := float64(in.dirty.Len())
	outPath := filepath.Join(work, "clean.csv")
	var walls, cpus []float64
	var peakKiB int64
	var first []byte
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(walls) == 0 || time.Now().Before(deadline) {
		cmd := exec.CommandContext(ctx, cfg.renuver, "-in", dirtyPath,
			"-threshold", fmt.Sprint(cleanThreshold), "-out", outPath)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		start := time.Now()
		err := cmd.Run()
		wall := time.Since(start)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("renuver clean: %w: %s", err, stderr.Bytes())
		}
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		walls = append(walls, wall.Seconds()*1e3)
		cpus = append(cpus, float64(time.Duration(ru.Utime.Nano()+ru.Stime.Nano()).Microseconds()))
		peakKiB = max(peakKiB, ru.Maxrss)

		data, err := os.ReadFile(outPath)
		if err != nil {
			return nil, err
		}
		m, err := checkCleanOutput(data, in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: clean output:", err)
		}
		switch {
		case first == nil:
			first = data
			setQuality(out, m)
		case !bytes.Equal(data, first):
			err = fmt.Errorf("output differs from the first run's")
			fmt.Fprintln(os.Stderr, "perfbench: clean output:", err)
		}
		out.check(err == nil)
	}
	out.opSamples = len(walls)
	out.values["op_p50_ms"] = median(walls)
	out.values["op_p95_ms"] = percentile(walls, 0.95)
	out.values["tuples_per_s"] = n / (median(walls) / 1e3)
	out.values["peak_rss_mb"] = float64(peakKiB) / 1024
	out.values["cpu_us_per_tuple"] = median(cpus) / n
	return out, nil
}

// warmUpRows is the size of the warm-up clean.
const warmUpRows = 40

// cleanWarmUp runs the CLI once end to end on the first warmUpRows rows
// of the input, which pages the binary in and warms the file cache
// without doing a full clean's work.
func cleanWarmUp(ctx context.Context, cfg config, work string, dirty *dataset.Relation) error {
	head := dataset.NewRelation(dirty.Schema())
	for i := 0; i < min(warmUpRows, dirty.Len()); i++ {
		head.MustAppend(dirty.Row(i))
	}
	in, out := filepath.Join(work, "warm.csv"), filepath.Join(work, "warm.out.csv")
	if err := dataset.WriteCSVFile(in, head); err != nil {
		return err
	}
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, cfg.renuver, "-in", in, "-threshold", fmt.Sprint(cleanThreshold), "-out", out)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("renuver warm-up clean: %w: %s", err, stderr.Bytes())
	}
	return nil
}

// checkCleanOutput parses the CLI's output CSV, checks that it kept the
// input's rows in order (every observed input cell unchanged), and scores
// the imputed cells against the injected ground truth.
func checkCleanOutput(data []byte, in *cleanInputs) (eval.Metrics, error) {
	got, err := dataset.ReadCSV(bytes.NewReader(data))
	if err != nil {
		return eval.Metrics{}, err
	}
	want := in.dirty
	if got.Len() != want.Len() || got.Schema().Len() != want.Schema().Len() {
		return eval.Metrics{}, fmt.Errorf("output is %dx%d, input %dx%d",
			got.Len(), got.Schema().Len(), want.Len(), want.Schema().Len())
	}
	for a := 0; a < want.Schema().Len(); a++ {
		if got.Schema().Attr(a).Name != want.Schema().Attr(a).Name {
			return eval.Metrics{}, fmt.Errorf("output column %d is %q, input %q",
				a, got.Schema().Attr(a).Name, want.Schema().Attr(a).Name)
		}
	}
	for i := 0; i < want.Len(); i++ {
		for a, v := range want.Row(i) {
			if !v.IsNull() && !got.Get(i, a).Equal(v) {
				return eval.Metrics{}, fmt.Errorf("row %d attribute %d changed from %v to %v", i, a, v, got.Get(i, a))
			}
		}
	}
	return eval.Score(got, in.injected, experiments.Rules("cars")), nil
}

// traceClean replays the CLI's pipeline in-process — read, discover,
// impute, write — alternating untraced and traced passes; the traced
// passes record a span around each layer call.
func traceClean(ctx context.Context, cfg config, work string, env environment, spansPath string) (*outcome, error) {
	out := newOutcome()
	in, err := makeCleanInputs(cfg)
	if err != nil {
		return nil, err
	}
	dirtyPath := filepath.Join(work, "dirty.csv")
	if err := dataset.WriteCSVFile(dirtyPath, in.dirty); err != nil {
		return nil, err
	}
	outPath := filepath.Join(work, "clean.csv")
	tr := newTracer()
	rec := obs.NewMetrics()
	defer obs.SetGlobalEnabled(false)

	var untraced []byte
	// Half the run, like the serve replay: a clean takes seconds, and
	// one untraced and one traced pass already measure every layer.
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second / 2)
	// Passes alternate untraced, traced, ...; the loop always ends after
	// a traced pass so both sides have the same number.
	for pass := 0; pass < 2 || pass%2 == 1 || time.Now().Before(deadline); pass++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		traced := pass%2 == 1
		obs.SetGlobalEnabled(traced)
		var ptr *tracer
		var prec *obs.Metrics
		if traced {
			ptr, prec = tr, rec
		}
		start := time.Now()
		if err := cleanPass(ptr, prec, dirtyPath, outPath); err != nil {
			return nil, err
		}
		tr.record("bench.replay", start, time.Now(), map[string]float64{"traced": b2f(traced), "calls": 1})
		data, err := os.ReadFile(outPath)
		if err != nil {
			return nil, err
		}
		if !traced {
			untraced = data
			continue
		}
		// Tracing must not change the output.
		_, err = checkCleanOutput(data, in)
		out.check(err == nil && bytes.Equal(data, untraced))
	}
	if err := writeSpans(spansPath, env, tr.spans); err != nil {
		return nil, err
	}
	spans, err := readSpans(spansPath)
	if err != nil {
		return nil, err
	}
	out.values = layerMetrics(spans)
	return out, nil
}

// cleanPass is what `renuver -in dirty.csv -threshold 15 -out clean.csv`
// does, through the same layer calls. rec is nil when untraced.
func cleanPass(tr *tracer, rec *obs.Metrics, dirtyPath, outPath string) error {
	root := tr.root("clean")
	defer tr.end(root, nil)

	sp := tr.child(root, "dataset.read_csv")
	rel, err := dataset.ReadCSVFile(dirtyPath)
	tr.end(sp, nil)
	if err != nil {
		return err
	}

	dcfg := discovery.Config{MaxThreshold: cleanThreshold, MaxLHS: 2}
	var opts []core.Option
	var before obs.Snapshot
	if rec != nil {
		dcfg.Recorder = rec
		opts = append(opts, core.WithRecorder(rec))
		before = rec.Snapshot()
	}
	sp = tr.child(root, "discovery.discover")
	sigma, err := discovery.Discover(rel, dcfg)
	if err != nil {
		return err
	}
	if rec != nil {
		tr.end(sp, discoveryAttrs(rec, before, len(sigma)))
	}

	res, err := traceImpute(tr, root, func() (*core.Result, error) {
		return core.New(sigma, opts...).Impute(rel)
	})
	if err != nil {
		return err
	}

	sp = tr.child(root, "dataset.write_csv")
	err = dataset.WriteCSVFile(outPath, res.Relation)
	tr.end(sp, nil)
	return err
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
