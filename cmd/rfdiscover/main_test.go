package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	renuver "repro"
)

const sampleCSV = `Name,City,Phone,Class
Granita,Malibu,310/456-0488,6
Granita,Malibu,310-456-0488,6
Citrus,Los Angeles,213/857-0034,6
Citrus,LA,213/857-0034,6
Fenix,Hollywood,213/848-6677,5
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWritesLoadableRFDs(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	out := filepath.Join(t.TempDir(), "sigma.rfd")
	if err := run(options{in: in, out: out, threshold: 9, maxLHS: 2, minSupport: 1, seed: 1}, os.Stderr); err != nil {
		t.Fatal(err)
	}
	rel, err := renuver.LoadCSVFile(in)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := renuver.LoadRFDsFile(out, rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) == 0 {
		t.Error("no RFDs written")
	}
}

func TestRunAdaptiveCaps(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	out := filepath.Join(t.TempDir(), "sigma.rfd")
	if err := run(options{in: in, out: out, threshold: 15, maxLHS: 2, minSupport: 1, seed: 1, adaptive: 0.25}, os.Stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "RFDcs") {
		t.Errorf("header missing: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunToStdoutWithSamplingAndDominated(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	var buf bytes.Buffer
	err := run(options{
		in: in, threshold: 6, maxLHS: 2, minSupport: 1,
		maxPairs: 6, seed: 3, keepDominated: true,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "RFDcs") {
		t.Errorf("stdout output missing header: %q", buf.String()[:40])
	}
	rel, err := renuver.LoadCSVFile(in)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := renuver.LoadRFDs(&buf, rel.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) == 0 {
		t.Error("no RFDs on stdout")
	}
}

func TestRunMissingInput(t *testing.T) {
	if err := run(options{in: filepath.Join(t.TempDir(), "nope.csv"), threshold: 9}, os.Stdout); err == nil {
		t.Error("missing input accepted")
	}
}

func TestRunBadConfig(t *testing.T) {
	in := writeTemp(t, "data.csv", sampleCSV)
	if err := run(options{in: in, threshold: -5}, os.Stdout); err == nil {
		t.Error("negative threshold accepted")
	}
	// Past the default β grid's limit: a -threshold error, not the
	// library's advice to pass an RHSGrid, which no flag sets.
	err := run(options{in: in, threshold: 1e7}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-threshold 1e+07 exceeds 65535") || strings.Contains(err.Error(), "RHSGrid") {
		t.Errorf("threshold 1e7: %v, want the -threshold error", err)
	}
}
