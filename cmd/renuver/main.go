// Command renuver imputes the missing values of a CSV (or JSON-lines)
// file with the RENUVER algorithm. Files ending in .jsonl/.ndjson are
// read and written as newline-delimited JSON; everything else is CSV.
//
// Usage:
//
//	renuver -in dirty.csv -out clean.csv [-rfds sigma.rfd] [-threshold 15]
//	        [-order asc|desc] [-verify lhs|both|off] [-report] [-stats]
//	renuver explain -in dirty.csv -row 7 -attr Phone [-rfds sigma.rfd]
//	renuver compile -in base.csv -out base.rnv [-rfds sigma.rfd]
//	renuver delta -artifact base.rnv -delta changes.json [-out next.rnv]
//	renuver serve -metrics-addr 127.0.0.1:8080 -in base.csv [-rfds sigma.rfd]
//	renuver serve -metrics-addr 127.0.0.1:8080 -artifact base.rnv
//
// When -rfds is omitted the RFDcs are discovered on the input first
// (threshold limit -threshold). With -report, per-cell imputation
// provenance is printed to stderr; with -stats, the run's counters and
// per-phase wall clock are printed as JSON to stderr. Progress goes to
// stderr as structured log lines (-log-json switches them to JSON).
//
// The explain form re-runs imputation with the provenance tracer focused
// on one cell and prints its full decision trace — which RFDc clusters
// applied, which donors were considered at what Eq. 2 distance, which
// candidate a dependency vetoed (and the witness tuple), and how the
// cell resolved. See explain.go.
//
// The compile form precompiles a base instance plus its (discovered or
// loaded) RFDc set into a versioned binary session artifact — see
// compile.go. The delta form applies a JSON mutation batch (the same
// shape the server's POST /v1/delta accepts) to an artifact offline and
// re-encodes the evolved session — see delta.go. The serve form starts
// a long-lived imputation service:
// POST a CSV (or a JSON tuple batch) to /impute, read cumulative
// metrics on /metrics (JSON, or Prometheus text format via Accept),
// fetch the latest decision trace on /trace/last, and profile via
// /debug/pprof — see serve.go. With -artifact it boots from a compiled
// artifact near-instantly, skipping discovery and compilation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strings"

	renuver "repro"
)

// version identifies the build; override it at link time with
// `-ldflags "-X main.version=v1.2.3"`. It is reported by -version and
// exported as the renuver_build_info metric of `renuver serve`.
var version = "dev"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "-version", "--version", "version":
			fmt.Printf("renuver %s %s levenshtein_kernel=%s artifact_format=v%d\n",
				version, runtime.Version(), renuver.ActiveKernelName(), renuver.ArtifactFormatVersion)
			return
		case "compile":
			if err := runCompile(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "renuver compile:", err)
				os.Exit(1)
			}
			return
		case "serve":
			if err := runServe(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "renuver serve:", err)
				os.Exit(1)
			}
			return
		case "delta":
			if err := runDelta(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "renuver delta:", err)
				os.Exit(1)
			}
			return
		case "explain":
			if err := runExplain(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "renuver explain:", err)
				os.Exit(1)
			}
			return
		}
	}
	var cfg runConfig
	var logJSON bool
	flag.StringVar(&cfg.in, "in", "", "input CSV with missing values (required)")
	flag.StringVar(&cfg.out, "out", "", "output CSV (default: stdout)")
	flag.StringVar(&cfg.rfds, "rfds", "", "RFDc set file; discovered from the input when omitted")
	flag.Float64Var(&cfg.threshold, "threshold", 15, "discovery threshold limit when -rfds is omitted")
	flag.IntVar(&cfg.maxLHS, "maxlhs", 2, "discovery LHS size limit when -rfds is omitted")
	flag.StringVar(&cfg.order, "order", "asc", "RHS-threshold cluster order: asc (paper prose) or desc (Algorithm 2 literal)")
	flag.StringVar(&cfg.verify, "verify", "lhs", "IS_FAULTLESS scope: lhs (Algorithm 4), both, off")
	flag.BoolVar(&cfg.report, "report", false, "print per-cell imputation provenance to stderr")
	flag.BoolVar(&cfg.stats, "stats", false, "print run counters and per-phase wall clock as JSON to stderr")
	flag.StringVar(&cfg.saveRFDs, "save-rfds", "", "write the (discovered) RFDc set to this file")
	flag.IntVar(&cfg.workers, "workers", 0, "parallel workers: candidate search (0 = serial) and discovery (0 = all CPUs; output identical)")
	flag.IntVar(&cfg.shards, "shards", 0, "discovery pattern shards and donor-pool sub-indexes (0 = unsharded; output identical for any value)")
	flag.StringVar(&cfg.donors, "donors", "", "comma-separated reference CSVs for the multi-dataset extension")
	flag.BoolVar(&logJSON, "log-json", false, "emit progress logs as JSON lines")
	flag.Parse()
	if cfg.in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := validateParallelism("-workers", cfg.workers); err != nil {
		fmt.Fprintln(os.Stderr, "renuver:", err)
		os.Exit(2)
	}
	if err := validateParallelism("-shards", cfg.shards); err != nil {
		fmt.Fprintln(os.Stderr, "renuver:", err)
		os.Exit(2)
	}
	cfg.logger = newLogger(logJSON)
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "renuver:", err)
		os.Exit(1)
	}
}

// newLogger builds the progress logger: human-readable key=value lines
// by default, one JSON object per line under -log-json. Both go to
// stderr so stdout stays reserved for the imputed relation.
func newLogger(jsonLines bool) *slog.Logger {
	if jsonLines {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// loadRelation reads CSV or (by .jsonl/.ndjson extension) JSON lines.
func loadRelation(path string) (*renuver.Relation, error) {
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".ndjson") {
		return renuver.LoadJSONLinesFile(path)
	}
	return renuver.LoadCSVFile(path)
}

// saveRelation writes CSV or (by extension) JSON lines.
func saveRelation(path string, rel *renuver.Relation) error {
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".ndjson") {
		return renuver.SaveJSONLinesFile(path, rel)
	}
	return renuver.SaveCSVFile(path, rel)
}

// runConfig carries the one-shot imputation flags.
type runConfig struct {
	in, out   string
	rfds      string
	saveRFDs  string
	threshold float64
	maxLHS    int
	order     string
	verify    string
	report    bool
	stats     bool
	workers   int
	shards    int
	donors    string
	logger    *slog.Logger
}

// prepareSigma loads Σ from cfg.rfds or discovers it on the input.
func prepareSigma(cfg *runConfig, rel *renuver.Relation) (renuver.RFDSet, error) {
	if cfg.rfds != "" {
		sigma, err := renuver.LoadRFDsFile(cfg.rfds, rel.Schema())
		if err != nil {
			return nil, err
		}
		cfg.logger.Info("loaded RFDcs", "count", len(sigma), "path", cfg.rfds)
		return sigma, nil
	}
	sigma, err := renuver.DiscoverRFDs(rel, renuver.DiscoveryOptions{
		MaxThreshold: cfg.threshold, MaxLHS: cfg.maxLHS, Workers: cfg.workers,
		Shards: cfg.shards,
	})
	if err != nil {
		return nil, err
	}
	cfg.logger.Info("discovered RFDcs", "count", len(sigma), "threshold_limit", cfg.threshold)
	return sigma, nil
}

func run(cfg runConfig) error {
	if cfg.logger == nil {
		cfg.logger = newLogger(false)
	}
	rel, err := loadRelation(cfg.in)
	if err != nil {
		return err
	}
	cfg.logger.Info("loaded input",
		"tuples", rel.Len(), "attributes", rel.Schema().Len(), "missing_cells", rel.CountMissing())

	sigma, err := prepareSigma(&cfg, rel)
	if err != nil {
		return err
	}
	if cfg.saveRFDs != "" {
		if err := renuver.SaveRFDsFile(cfg.saveRFDs, sigma, rel.Schema()); err != nil {
			return err
		}
	}

	opts, err := imputerOptions(cfg.order, cfg.verify, cfg.workers, cfg.shards)
	if err != nil {
		return err
	}

	var res *renuver.Result
	if cfg.donors != "" {
		var pool []*renuver.Relation
		for _, path := range strings.Split(cfg.donors, ",") {
			donor, err := loadRelation(strings.TrimSpace(path))
			if err != nil {
				return err
			}
			pool = append(pool, donor)
		}
		res, err = renuver.NewImputer(sigma, opts...).ImputeWithDonors(rel, pool)
	} else {
		res, err = renuver.Impute(rel, sigma, opts...)
	}
	if err != nil {
		return err
	}
	cfg.logger.Info("imputation done",
		"imputed", res.Stats.Imputed, "missing", res.Stats.MissingCells,
		"key_rfds_filtered", res.Stats.KeyRFDs, "verify_rejections", res.Stats.VerifyRejections)
	if cfg.report {
		fmt.Fprint(os.Stderr, res.Report(rel.Schema()))
	}
	if cfg.stats {
		doc, err := json.MarshalIndent(res.Stats, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s\n", doc)
	}

	if cfg.out == "" {
		return renuver.SaveCSV(os.Stdout, res.Relation)
	}
	return saveRelation(cfg.out, res.Relation)
}
