package main

// runCompile is the `renuver compile` mode: the TRIARD-style folder
// pipeline (dataset in, dependency set in or discovered, results out)
// collapsed into one native binary artifact. The base instance is
// compiled once — columnar view and interning tables — Σ is
// discovered (or loaded), and the whole compiled session is serialized
// into the versioned artifact format.
// Any number of serving replicas then boot from that one file with
// `renuver serve -artifact`, skipping both discovery and compilation.

import (
	"context"
	"flag"
	"fmt"
	"time"

	renuver "repro"
)

func runCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	var (
		in        = fs.String("in", "", "base CSV/JSONL compiled into the artifact (required)")
		out       = fs.String("out", "", "artifact output path (required)")
		rfds      = fs.String("rfds", "", "RFDc set file; discovered from the base when omitted")
		threshold = fs.Float64("threshold", 15, "discovery threshold limit when -rfds is omitted")
		maxLHS    = fs.Int("maxlhs", 2, "discovery LHS size limit when -rfds is omitted")
		saveRFDs  = fs.String("save-rfds", "", "also write the (discovered) RFDc set to this file")
		logJSON   = fs.Bool("log-json", false, "emit progress logs as JSON lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("compile: -in and -out are required")
	}
	logger := newLogger(*logJSON)

	base, err := loadRelation(*in)
	if err != nil {
		return err
	}
	logger.Info("loaded base",
		"tuples", base.Len(), "attributes", base.Schema().Len(), "missing_cells", base.CountMissing())

	start := time.Now()
	sess, err := renuver.NewSession(base, nil)
	if err != nil {
		return err
	}
	var sigma renuver.RFDSet
	if *rfds != "" {
		if sigma, err = renuver.LoadRFDsFile(*rfds, base.Schema()); err != nil {
			return err
		}
		logger.Info("loaded RFDcs", "count", len(sigma), "path", *rfds)
	} else {
		if err := renuver.CheckDiscoveryThreshold(*threshold); err != nil {
			return err
		}
		sigma, err = sess.Discover(context.Background(), renuver.DiscoveryOptions{
			MaxThreshold: *threshold, MaxLHS: *maxLHS,
		})
		if err != nil {
			return err
		}
		logger.Info("discovered RFDcs", "count", len(sigma), "threshold_limit", *threshold)
	}
	if *saveRFDs != "" {
		if err := renuver.SaveRFDsFile(*saveRFDs, sigma, base.Schema()); err != nil {
			return err
		}
	}
	if sess, err = sess.WithSigma(sigma); err != nil {
		return err
	}

	if err := sess.SaveArtifactFile(*out); err != nil {
		return err
	}
	ai := sess.Artifact()
	logger.Info("artifact written", "path", *out,
		"format_version", ai.FormatVersion,
		"checksum", fmt.Sprintf("%016x", ai.Checksum),
		"tuples", ai.Tuples, "arity", ai.Arity, "rules", ai.Rules,
		"bytes", ai.Bytes, "elapsed", time.Since(start).Round(time.Millisecond).String())
	return nil
}
