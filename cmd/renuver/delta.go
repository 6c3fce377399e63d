package main

// runDelta is the `renuver delta` mode: apply one JSON mutation batch
// to a compiled-session artifact offline — the same renuver.Delta the
// Go API's Session.ApplyDelta and the server's POST /v1/delta consume,
// read from a file instead of a request body. The artifact is loaded,
// the delta applied (Σ revalidated over the changed rows), and the
// evolved session re-encoded, so a fleet can roll a data change by
// distributing one new artifact instead of replaying mutations against
// every replica.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	renuver "repro"
)

func runDelta(args []string) error {
	fs := flag.NewFlagSet("delta", flag.ExitOnError)
	var (
		artifactPath = fs.String("artifact", "", "compiled session artifact to mutate (required)")
		deltaPath    = fs.String("delta", "", "JSON delta file: {\"inserts\":[...],\"updates\":[...],\"deletes\":[...]} (required)")
		out          = fs.String("out", "", "output artifact path (default: overwrite -artifact in place)")
		summary      = fs.Bool("summary", true, "print the DeltaResult as JSON to stdout")
		logJSON      = fs.Bool("log-json", false, "emit progress logs as JSON lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *artifactPath == "" || *deltaPath == "" {
		fs.Usage()
		return fmt.Errorf("delta: -artifact and -delta are required")
	}
	if *out == "" {
		*out = *artifactPath
	}
	logger := newLogger(*logJSON)

	start := time.Now()
	sess, err := renuver.LoadSession(*artifactPath)
	if err != nil {
		return err
	}
	ai := sess.Artifact()
	logger.Info("artifact loaded", "path", *artifactPath,
		"checksum", fmt.Sprintf("%016x", ai.Checksum),
		"tuples", ai.Tuples, "rules", ai.Rules)

	body, err := os.ReadFile(*deltaPath)
	if err != nil {
		return err
	}
	bv := sess.BaseView()
	if bv == nil {
		return fmt.Errorf("delta: artifact %s is self-contained (no base instance to mutate)", *artifactPath)
	}
	schema := bv.Relation().Schema()
	d, err := decodeDelta(schema, body)
	if err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	res, err := sess.ApplyDelta(context.Background(), d)
	if err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	if err := sess.SaveArtifactFile(*out); err != nil {
		return err
	}
	logger.Info("artifact written", "path", *out,
		"epoch", res.Epoch, "tuples", res.Rows, "rules", res.Rules,
		"inserted", res.Inserted, "updated", res.Updated, "deleted", res.Deleted,
		"sigma_dropped", res.SigmaDropped, "sigma_tightened", res.SigmaTightened,
		"elapsed", time.Since(start).Round(time.Millisecond).String())
	if *summary {
		doc, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", doc)
	}
	return nil
}
