package main

import (
	"errors"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	renuver "repro"
)

const dirtyCSV = `Name,City,Phone,Type,Class
Granita,Malibu,310/456-0488,Californian,6
Chinois Main,LA,310-392-9025,French,5
Citrus,Los Angeles,213/857-0034,Californian,6
Citrus,Los Angeles,,Californian,6
Fenix,Hollywood,213/848-6677,,5
Fenix Argyle,,213/848-6677,French (new),5
C. Main,Los Angeles,,French,5
`

const sigmaFile = `Name(<=8), Phone(<=0), Class(<=1) -> Type(<=0)
Class(<=0) -> Type(<=5)
City(<=2) -> Phone(<=2)
Name(<=4) -> Phone(<=1)
Name(<=8), Phone(<=0) -> City(<=9)
Name(<=6), City(<=9) -> Phone(<=0)
Phone(<=1) -> Class(<=0)
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// quietLogger keeps test output free of progress lines.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testRun adapts the old positional signature to runConfig.
func testRun(in, out, rfds, saveRFDs string, threshold float64, maxLHS int,
	order, verify string, report, stats bool, donors string) error {
	return run(runConfig{
		in: in, out: out, rfds: rfds, saveRFDs: saveRFDs,
		threshold: threshold, maxLHS: maxLHS, order: order, verify: verify,
		report: report, stats: stats, donors: donors,
		logger: quietLogger(),
	})
}

func TestRunWithProvidedRFDs(t *testing.T) {
	in := writeTemp(t, "dirty.csv", dirtyCSV)
	rfds := writeTemp(t, "sigma.rfd", sigmaFile)
	out := filepath.Join(t.TempDir(), "clean.csv")
	if err := testRun(in, out, rfds, "", 15, 2, "asc", "lhs", false, false, ""); err != nil {
		t.Fatal(err)
	}
	rel, err := renuver.LoadCSVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if rel.CountMissing() != 0 {
		t.Errorf("%d cells left missing", rel.CountMissing())
	}
	phone := rel.Schema().MustIndex("Phone")
	if got := rel.Get(6, phone).Str(); got != "310-392-9025" {
		t.Errorf("t7[Phone] = %q", got)
	}
}

func TestRunWithDiscovery(t *testing.T) {
	in := writeTemp(t, "dirty.csv", dirtyCSV)
	out := filepath.Join(t.TempDir(), "clean.csv")
	saved := filepath.Join(t.TempDir(), "sigma.rfd")
	if err := testRun(in, out, "", saved, 9, 2, "asc", "both", true, false, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("output not written: %v", err)
	}
	data, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "->") {
		t.Errorf("saved RFDs look wrong: %q", string(data)[:50])
	}
}

func TestRunBadFlags(t *testing.T) {
	in := writeTemp(t, "dirty.csv", dirtyCSV)
	rfds := writeTemp(t, "sigma.rfd", sigmaFile)
	if err := testRun(in, "", rfds, "", 15, 2, "sideways", "lhs", false, false, ""); err == nil {
		t.Error("bad -order accepted")
	}
	if err := testRun(in, "", rfds, "", 15, 2, "asc", "maybe", false, false, ""); err == nil {
		t.Error("bad -verify accepted")
	}
	if err := testRun(filepath.Join(t.TempDir(), "missing.csv"), "", "", "", 15, 2, "asc", "lhs", false, false, ""); err == nil {
		t.Error("missing input accepted")
	}
	if err := testRun(in, "", filepath.Join(t.TempDir(), "missing.rfd"), "", 15, 2, "asc", "lhs", false, false, ""); err == nil {
		t.Error("missing RFD file accepted")
	}
}

func TestRunJSONLinesInAndOut(t *testing.T) {
	in := writeTemp(t, "dirty.jsonl",
		`{"A":"x","B":"v1"}
{"A":"x","B":null}
`)
	rfdsFile := writeTemp(t, "sigma.rfd", "A(<=0) -> B(<=0)\n")
	out := filepath.Join(t.TempDir(), "clean.jsonl")
	if err := testRun(in, out, rfdsFile, "", 15, 2, "asc", "lhs", false, false, ""); err != nil {
		t.Fatal(err)
	}
	rel, err := renuver.LoadJSONLinesFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if rel.CountMissing() != 0 {
		t.Errorf("%d cells left missing in JSON output", rel.CountMissing())
	}
	if got := rel.Get(1, 1).Str(); got != "v1" {
		t.Errorf("imputed B = %q", got)
	}
}

func TestRunWithDonorPool(t *testing.T) {
	// The target has a missing B with no internal donor; the reference
	// file supplies it.
	in := writeTemp(t, "target.csv", "A,B\nx,\ny,v2\n")
	donor := writeTemp(t, "donor.csv", "A,B\nx,v1\n")
	rfds := writeTemp(t, "sigma.rfd", "A(<=0) -> B(<=0)\n")
	out := filepath.Join(t.TempDir(), "clean.csv")
	if err := testRun(in, out, rfds, "", 15, 2, "asc", "lhs", false, false, donor); err != nil {
		t.Fatal(err)
	}
	rel, err := renuver.LoadCSVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Get(0, 1).Str(); got != "v1" {
		t.Errorf("B = %q, want v1 from the donor file", got)
	}
	// A bad donor path must fail loudly.
	if err := testRun(in, "", rfds, "", 15, 2, "asc", "lhs", false, false, "/nonexistent.csv"); err == nil {
		t.Error("missing donor file accepted")
	}
}

func TestRunDescOrderAndOffVerify(t *testing.T) {
	in := writeTemp(t, "dirty.csv", dirtyCSV)
	rfds := writeTemp(t, "sigma.rfd", sigmaFile)
	out := filepath.Join(t.TempDir(), "clean.csv")
	if err := testRun(in, out, rfds, "", 15, 2, "desc", "off", false, false, ""); err != nil {
		t.Fatal(err)
	}
	rel, err := renuver.LoadCSVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 7 {
		t.Errorf("rows = %d", rel.Len())
	}
}

// thresholdChild runs `renuver -in dirty.csv -threshold <th>` as a child
// process (this test binary, re-entering main through the named test)
// and returns its exit code and combined output. In the child it runs
// main and reports true; the caller then returns.
func thresholdChild(t *testing.T, test, th string) (child bool, code int, out []byte) {
	if in := os.Getenv("RENUVER_TEST_MAIN_IN"); in != "" {
		os.Args = []string{"renuver", "-in", in, "-threshold", th}
		main()
		return true, 0, nil
	}
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh to cap the child's address space")
	}
	in := writeTemp(t, "dirty.csv", dirtyCSV)
	// The address-space cap turns a regression (a β grid that never
	// stops growing) into a failed child instead of an exhausted host.
	cmd := exec.Command(sh, "-c", `ulimit -v 4000000 && exec "$@"`, "sh",
		os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "RENUVER_TEST_MAIN_IN="+in)
	out, err = cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("renuver -threshold %s: err %v, want a non-zero exit\n%s", th, err, out)
	}
	return false, exit.ExitCode(), out
}

// TestInfiniteThresholdExits expects `renuver -threshold Inf` to exit
// non-zero with the discovery error: an infinite limit has no finite
// default β grid to build.
func TestInfiniteThresholdExits(t *testing.T) {
	child, code, out := thresholdChild(t, "TestInfiniteThresholdExits", "Inf")
	if child {
		return
	}
	if code == 0 {
		t.Fatalf("renuver -threshold Inf exited 0\n%s", out)
	}
	if !strings.Contains(string(out), "MaxThreshold must be finite") {
		t.Errorf("renuver -threshold Inf output lacks the discovery error:\n%s", out)
	}
}

// TestHugeThresholdExits expects `renuver -threshold 1e7` to exit 1 with
// a -threshold error naming the limit instead of building a
// ten-million-entry default grid, and not to send the user to
// DiscoveryOptions.RHSGrid, which no flag sets.
func TestHugeThresholdExits(t *testing.T) {
	child, code, out := thresholdChild(t, "TestHugeThresholdExits", "1e7")
	if child {
		return
	}
	if code != 1 {
		t.Fatalf("renuver -threshold 1e7 exited %d, want 1\n%s", code, out)
	}
	if !strings.Contains(string(out), "-threshold") || !strings.Contains(string(out), "exceeds 65535") {
		t.Errorf("renuver -threshold 1e7 output lacks the threshold error:\n%s", out)
	}
	if strings.Contains(string(out), "RHSGrid") {
		t.Errorf("renuver -threshold 1e7 points at RHSGrid, which no flag sets:\n%s", out)
	}
}

// TestHugeThresholdSubcommands: compile, explain and serve refuse a
// -threshold above the default grid's limit with the same flag error,
// before any discovery runs, and accept the limit itself.
func TestHugeThresholdSubcommands(t *testing.T) {
	in := writeTemp(t, "dirty.csv", dirtyCSV)
	out := filepath.Join(t.TempDir(), "x.rnv")
	for name, run := range map[string]func(th string) error{
		"compile": func(th string) error {
			return runCompile([]string{"-in", in, "-out", out, "-threshold", th})
		},
		"explain": func(th string) error {
			return runExplain([]string{"-in", in, "-row", "4", "-attr", "Phone", "-threshold", th})
		},
		"serve": func(th string) error {
			// serve switches the process-wide metrics sink on; it is off
			// by default.
			defer renuver.SetGlobalMetricsEnabled(false)
			return runServe([]string{"-in", in, "-metrics-addr", "127.0.0.1:-1", "-threshold", th})
		},
	} {
		err := run("65536")
		if err == nil || !strings.Contains(err.Error(), "-threshold 65536 exceeds 65535") || strings.Contains(err.Error(), "RHSGrid") {
			t.Errorf("%s -threshold 65536: %v, want the -threshold error", name, err)
		}
	}
	if err := renuver.CheckDiscoveryThreshold(65535); err != nil {
		t.Errorf("the limit itself refused: %v", err)
	}
}
