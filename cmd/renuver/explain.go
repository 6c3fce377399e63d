package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"

	renuver "repro"
)

// runExplain is the `renuver explain` mode: re-run imputation with the
// provenance tracer focused on a single cell and print that cell's
// decision trace — the answer to "why did tuple t get value X in
// attribute A?" (the paper's Example 5.9 walk-through, automated).
//
// Rows are 1-based to match the -report output; the attribute is named.
func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	var (
		in        = fs.String("in", "", "input CSV/JSONL with missing values (required)")
		rfds      = fs.String("rfds", "", "RFDc set file; discovered from the input when omitted")
		threshold = fs.Float64("threshold", 15, "discovery threshold limit when -rfds is omitted")
		maxLHS    = fs.Int("maxlhs", 2, "discovery LHS size limit when -rfds is omitted")
		order     = fs.String("order", "asc", "RHS-threshold cluster order: asc or desc")
		verify    = fs.String("verify", "lhs", "IS_FAULTLESS scope: lhs, both, off")
		row       = fs.Int("row", 0, "1-based row of the cell to explain (required)")
		attr      = fs.String("attr", "", "attribute name (or 1-based position) of the cell (required)")
		asJSON    = fs.Bool("json", false, "print the raw trace events as JSON lines instead of text")
		logJSON   = fs.Bool("log-json", false, "emit progress logs as JSON lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *row == 0 || *attr == "" {
		fs.Usage()
		return fmt.Errorf("-in, -row and -attr are required")
	}
	return explainCell(explainConfig{
		in: *in, rfds: *rfds, threshold: *threshold, maxLHS: *maxLHS,
		order: *order, verify: *verify, row: *row, attr: *attr,
		asJSON: *asJSON, logger: newLogger(*logJSON),
	}, os.Stdout)
}

// explainConfig carries the explain-mode flags.
type explainConfig struct {
	in        string
	rfds      string
	threshold float64
	maxLHS    int
	order     string
	verify    string
	row       int
	attr      string
	asJSON    bool
	logger    *slog.Logger
}

// explainCell runs the traced imputation and writes the cell's trace.
func explainCell(cfg explainConfig, w io.Writer) error {
	rel, err := loadRelation(cfg.in)
	if err != nil {
		return err
	}
	attrIdx, err := resolveAttr(rel, cfg.attr)
	if err != nil {
		return err
	}
	if cfg.row < 1 || cfg.row > rel.Len() {
		return fmt.Errorf("-row %d out of range 1..%d", cfg.row, rel.Len())
	}
	rowIdx := cfg.row - 1
	if !rel.Get(rowIdx, attrIdx).IsNull() {
		return fmt.Errorf("cell (row %d, %s) is not missing; only missing cells have decision traces",
			cfg.row, rel.Schema().Attr(attrIdx).Name)
	}

	rc := runConfig{in: cfg.in, rfds: cfg.rfds, threshold: cfg.threshold,
		maxLHS: cfg.maxLHS, logger: cfg.logger}
	sigma, err := prepareSigma(&rc, rel)
	if err != nil {
		return err
	}
	opts, err := imputerOptions(cfg.order, cfg.verify)
	if err != nil {
		return err
	}

	// Trace only the requested cell: the run is otherwise identical, and
	// the per-attribute distance recompute stays off every other cell.
	tracer := renuver.NewRingTracer(1, 1)
	tracer.Only(rowIdx, attrIdx)
	res, err := renuver.Impute(rel, sigma, append(opts, renuver.WithTracer(tracer))...)
	if err != nil {
		return err
	}

	evs := res.Explain(rowIdx, attrIdx)
	if len(evs) == 0 {
		return fmt.Errorf("no trace recorded for cell (row %d, %s)", cfg.row, cfg.attr)
	}
	if cfg.asJSON {
		return tracer.WriteJSONL(w)
	}
	_, err = io.WriteString(w, res.ExplainText(rel.Schema(), rowIdx, attrIdx))
	return err
}

// resolveAttr maps an attribute name (or 1-based position) to its index.
func resolveAttr(rel *renuver.Relation, name string) (int, error) {
	if idx, ok := rel.Schema().Index(name); ok {
		return idx, nil
	}
	if n, err := strconv.Atoi(name); err == nil && n >= 1 && n <= rel.Schema().Len() {
		return n - 1, nil
	}
	return 0, fmt.Errorf("unknown attribute %q (have: %s)",
		name, strings.Join(rel.Schema().Names(), ", "))
}
