// Command benchdiff is the performance-regression gate: it compares a
// freshly measured benchmark JSON document (the BENCH_*.json shape the
// env-gated TestBench*JSON emitters write) against the committed
// baseline and fails when a benchmark got slower than the tolerance
// band allows.
//
// Usage:
//
//	benchdiff [flags] <baseline.json> <current.json> [<baseline> <current> ...]
//
// Files are compared pairwise. Records are matched by benchmark name;
// a benchmark present in the baseline but missing from the current run
// is itself a failure (a silently dropped benchmark is how regressions
// hide). Three dimensions are gated independently:
//
//   - ns/op with -tolerance (default 0.50): wall clock is noisy on
//     shared hosts, so the band is wide; a real regression that matters
//     clears 50% easily.
//   - allocs/op with -allocs-tolerance (default 0.02) plus the absolute
//     -allocs-slack (default 2): allocation counts are deterministic up
//     to amortized map growth, so the band is tight — the zero-alloc
//     guarantees of the hot paths are enforced here, not by eyeballs.
//   - bytes/op with -bytes-tolerance (default 0.50).
//
// Improvements are reported but never fail the gate; refresh the
// committed baselines (make bench-update) to claim them.
//
// `make bench-check` wires this behind fresh measurements; `make
// bench-update` blesses the current figures as the new baselines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// Record is one benchmark's measured figures, matched by Name across
// the baseline and current documents.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Tolerance is the per-dimension regression band.
type Tolerance struct {
	Time        float64 // relative ns/op headroom
	Allocs      float64 // relative allocs/op headroom
	AllocsSlack int64   // absolute allocs/op headroom on top
	Bytes       float64 // relative bytes/op headroom
}

// parseRecords extracts every benchmark record from a BENCH_*.json
// document, wherever it nests: the walker looks for objects carrying a
// "name" string and an "ns_per_op" number, so the per-package envelope
// differences (engine's run_stats, session's speedup, discovery's
// gomaxprocs) never need schema-specific code. Object keys are walked
// in sorted order and the first occurrence of a name wins, so duplicate
// names resolve deterministically — a historical document with
// "after"/"before" sections yields the "after" figures.
func parseRecords(doc []byte) (map[string]Record, error) {
	var root any
	if err := json.Unmarshal(doc, &root); err != nil {
		return nil, err
	}
	out := make(map[string]Record)
	var walk func(v any)
	walk = func(v any) {
		switch node := v.(type) {
		case []any:
			for _, e := range node {
				walk(e)
			}
		case map[string]any:
			name, hasName := node["name"].(string)
			ns, hasNs := node["ns_per_op"].(float64)
			if hasName && hasNs {
				if _, seen := out[name]; seen {
					return
				}
				r := Record{Name: name, NsPerOp: ns}
				if it, ok := node["iterations"].(float64); ok {
					r.Iterations = int(it)
				}
				if a, ok := node["allocs_per_op"].(float64); ok {
					r.AllocsPerOp = int64(a)
				}
				if b, ok := node["bytes_per_op"].(float64); ok {
					r.BytesPerOp = int64(b)
				}
				out[name] = r
				return
			}
			keys := make([]string, 0, len(node))
			for k := range node {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(node[k])
			}
		}
	}
	walk(root)
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark records found")
	}
	return out, nil
}

// diffLine is one compared dimension of one benchmark.
type diffLine struct {
	name, dim  string
	base, curr float64
	failed     bool
}

func (d diffLine) String() string {
	verdict := "ok"
	if d.failed {
		verdict = "REGRESSION"
	} else if d.curr < d.base {
		verdict = "improved"
	}
	delta := 0.0
	if d.base != 0 {
		delta = (d.curr - d.base) / d.base * 100
	}
	return fmt.Sprintf("%-45s %-10s %14.0f -> %14.0f  %+7.1f%%  %s",
		d.name, d.dim, d.base, d.curr, delta, verdict)
}

// compare gates the current records against the baseline. Every line of
// the report is returned; failed reports whether any dimension broke
// its band (or a baseline benchmark vanished).
func compare(baseline, current map[string]Record, tol Tolerance) (report []string, failed bool) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		curr, ok := current[name]
		if !ok {
			report = append(report, fmt.Sprintf("%-45s MISSING from current run", name))
			failed = true
			continue
		}
		checks := []diffLine{
			{name, "ns/op", base.NsPerOp, curr.NsPerOp,
				curr.NsPerOp > base.NsPerOp*(1+tol.Time)},
			{name, "allocs/op", float64(base.AllocsPerOp), float64(curr.AllocsPerOp),
				float64(curr.AllocsPerOp) > float64(base.AllocsPerOp)*(1+tol.Allocs)+float64(tol.AllocsSlack)},
			{name, "bytes/op", float64(base.BytesPerOp), float64(curr.BytesPerOp),
				float64(curr.BytesPerOp) > float64(base.BytesPerOp)*(1+tol.Bytes)},
		}
		for _, c := range checks {
			report = append(report, c.String())
			failed = failed || c.failed
		}
	}
	extras := make([]string, 0)
	for name := range current {
		if _, ok := baseline[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		report = append(report, fmt.Sprintf("%-45s new benchmark (no baseline; run make bench-update)", name))
	}
	return report, failed
}

// diffFiles compares one baseline/current file pair.
func diffFiles(baselinePath, currentPath string, tol Tolerance) (report []string, failed bool, err error) {
	baseDoc, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, false, err
	}
	currDoc, err := os.ReadFile(currentPath)
	if err != nil {
		return nil, false, err
	}
	baseline, err := parseRecords(baseDoc)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", baselinePath, err)
	}
	current, err := parseRecords(currDoc)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", currentPath, err)
	}
	report, failed = compare(baseline, current, tol)
	return report, failed, nil
}

func run(args []string) (failed bool, err error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var tol Tolerance
	fs.Float64Var(&tol.Time, "tolerance", 0.50, "relative ns/op regression band")
	fs.Float64Var(&tol.Allocs, "allocs-tolerance", 0.02, "relative allocs/op regression band")
	fs.Int64Var(&tol.AllocsSlack, "allocs-slack", 2, "absolute allocs/op headroom on top of the relative band")
	fs.Float64Var(&tol.Bytes, "bytes-tolerance", 0.50, "relative bytes/op regression band")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	paths := fs.Args()
	if len(paths) == 0 || len(paths)%2 != 0 {
		return false, fmt.Errorf("usage: benchdiff [flags] <baseline.json> <current.json> [...]")
	}
	for i := 0; i < len(paths); i += 2 {
		report, pairFailed, err := diffFiles(paths[i], paths[i+1], tol)
		if err != nil {
			return true, err
		}
		fmt.Printf("== %s vs %s\n", paths[i], paths[i+1])
		for _, line := range report {
			fmt.Println(line)
		}
		failed = failed || pairFailed
	}
	return failed, nil
}

func main() {
	failed, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: performance regression detected (see report above)")
		os.Exit(1)
	}
	fmt.Println("benchdiff: all benchmarks within tolerance")
}
