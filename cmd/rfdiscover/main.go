// Command rfdiscover discovers RFDcs holding on a CSV file and writes
// them one per line (the format cmd/renuver -rfds consumes).
//
// Usage:
//
//	rfdiscover -in data.csv [-threshold 15] [-maxlhs 2] [-out sigma.rfd]
//	           [-max-pairs 0] [-keep-dominated] [-adaptive 0.25]
//
// With -adaptive q, per-attribute threshold caps are derived from the
// q-quantile of each attribute's distance distribution (the paper's
// Sec. 7 extension) before discovery runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	renuver "repro"
)

type options struct {
	in, out       string
	threshold     float64
	maxLHS        int
	maxPairs      int
	seed          int64
	keepDominated bool
	minSupport    int
	adaptive      float64
}

func main() {
	var opts options
	flag.StringVar(&opts.in, "in", "", "input CSV (required)")
	flag.StringVar(&opts.out, "out", "", "output RFDc file (default: stdout)")
	flag.Float64Var(&opts.threshold, "threshold", 15, "maximum constraint threshold (the paper sweeps 3..15)")
	flag.IntVar(&opts.maxLHS, "maxlhs", 2, "maximum LHS attribute-set size")
	flag.IntVar(&opts.maxPairs, "max-pairs", 0, "tuple-pair sample cap (0 = exact)")
	flag.Int64Var(&opts.seed, "seed", 1, "sampling seed")
	flag.BoolVar(&opts.keepDominated, "keep-dominated", false, "keep dependencies implied by more general ones")
	flag.IntVar(&opts.minSupport, "min-support", 1, "minimum satisfying pairs per dependency")
	flag.Float64Var(&opts.adaptive, "adaptive", 0, "quantile for per-attribute adaptive threshold caps (0 = off)")
	flag.Parse()
	if opts.in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rfdiscover:", err)
		os.Exit(1)
	}
}

func run(opts options, stdout io.Writer) error {
	if err := renuver.CheckDiscoveryThreshold(opts.threshold); err != nil {
		return err
	}
	rel, err := renuver.LoadCSVFile(opts.in)
	if err != nil {
		return err
	}
	cfg := renuver.DiscoveryOptions{
		MaxThreshold:  opts.threshold,
		MaxLHS:        opts.maxLHS,
		MaxPairs:      opts.maxPairs,
		Seed:          opts.seed,
		KeepDominated: opts.keepDominated,
		MinSupport:    opts.minSupport,
	}
	if opts.adaptive > 0 {
		cfg.AttrLimits = renuver.AdaptiveThresholdLimits(rel, opts.adaptive, opts.maxPairs, opts.seed)
	}
	sigma, err := renuver.DiscoverRFDs(rel, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "discovered %d RFDcs on %d tuples x %d attributes\n",
		len(sigma), rel.Len(), rel.Schema().Len())
	if opts.out == "" {
		return renuver.SaveRFDs(stdout, sigma, rel.Schema())
	}
	return renuver.SaveRFDsFile(opts.out, sigma, rel.Schema())
}
