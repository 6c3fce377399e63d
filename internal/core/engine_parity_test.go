package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// parityConfigs are the evaluation-engine configurations that must all
// produce the same imputations: the engine's index is a pure
// optimization.
func parityConfigs() map[string][]Option {
	return map[string][]Option{
		"default":  nil,
		"no-index": {WithoutIndex()},
	}
}

// accuracyStats extracts the Stats fields that are algorithmic outcomes
// (as opposed to scan-efficiency counters, which legitimately differ
// between indexed and sweeping configurations).
type accuracyStats struct {
	Imputed, Unimputed, MissingCells     int
	KeyRFDs, KeyFlips                    int
	ClustersScanned, CandidatesEvaluated int
	DonorsRanked, CandidatesTried        int
	FaultlessChecks, VerifyRejections    int
	ImputedByAttrLen                     int
}

func accuracyOf(res *Result) accuracyStats {
	return accuracyStats{
		Imputed: res.Stats.Imputed, Unimputed: res.Stats.Unimputed,
		MissingCells: res.Stats.MissingCells,
		KeyRFDs:      res.Stats.KeyRFDs, KeyFlips: res.Stats.KeyFlips,
		ClustersScanned:     res.Stats.ClustersScanned,
		CandidatesEvaluated: res.Stats.CandidatesEvaluated,
		DonorsRanked:        res.Stats.DonorsRanked,
		CandidatesTried:     res.Stats.CandidatesTried,
		FaultlessChecks:     res.Stats.FaultlessChecks,
		VerifyRejections:    res.Stats.VerifyRejections,
		ImputedByAttrLen:    len(res.Stats.ImputedByAttr),
	}
}

// traceJSONL serializes a traced run's cells the way the export surface
// does, with the wall clock normalized — the byte-level form the trace
// golden pins.
func traceJSONL(t *testing.T, tr *obs.RingTracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, cell := range tr.Cells() {
		for _, ev := range cell {
			ev.UnixNano = 0
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// runParity imputes one workload under every engine configuration and
// fails unless the imputations, final relation, accuracy counters, and
// trace JSONL bytes are identical across all of them.
func runParity(t *testing.T, label string, rel *dataset.Relation, sigma rfd.Set) {
	t.Helper()
	type outcome struct {
		res   *Result
		trace []byte
	}
	outcomes := map[string]outcome{}
	for name, opts := range parityConfigs() {
		tr := obs.NewRingTracer(0, 1)
		res, err := New(sigma, append(opts, WithTracer(tr))...).Impute(rel)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, name, err)
		}
		outcomes[name] = outcome{res: res, trace: traceJSONL(t, tr)}
	}
	ref := outcomes["default"]
	for name, o := range outcomes {
		if !ref.res.Relation.Equal(o.res.Relation) {
			t.Errorf("%s/%s: final relation diverged from default config", label, name)
		}
		if len(ref.res.Imputations) != len(o.res.Imputations) {
			t.Fatalf("%s/%s: %d imputations vs %d", label, name,
				len(o.res.Imputations), len(ref.res.Imputations))
		}
		for i := range ref.res.Imputations {
			if ref.res.Imputations[i] != o.res.Imputations[i] {
				t.Errorf("%s/%s: imputation %d differs:\n%+v\n%+v",
					label, name, i, o.res.Imputations[i], ref.res.Imputations[i])
			}
		}
		if accuracyOf(ref.res) != accuracyOf(o.res) {
			t.Errorf("%s/%s: accuracy counters diverged:\n%+v\n%+v",
				label, name, accuracyOf(o.res), accuracyOf(ref.res))
		}
		if !bytes.Equal(ref.trace, o.trace) {
			t.Errorf("%s/%s: trace JSONL diverged from default config", label, name)
		}
	}
}

// TestEngineParityTable2 guards the engine rewiring on the paper's
// worked example: every configuration reproduces the known Table 2
// imputations (t7's Phone from its Chinois donor) byte-identically.
func TestEngineParityTable2(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	runParity(t, "table2", rel, sigma)

	res, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	phone := rel.Schema().MustIndex("Phone")
	if got := res.Relation.Get(6, phone).Str(); got != "310-392-9025" {
		t.Errorf("t7[Phone] = %q, want the Chinois donor value", got)
	}
	if res.Stats.Imputed != 4 {
		t.Errorf("imputed %d, want 4", res.Stats.Imputed)
	}
}

// TestEngineParityWorkloads runs the two bench workloads (Table 2
// replicated at scale; correlated numerics) through every configuration,
// and checks that the engine's index counter actually moves: the
// default configuration must answer candidate probes from the index.
func TestEngineParityWorkloads(t *testing.T) {
	srel, ssigma := engineBenchStrings(t, 12)
	runParity(t, "strings", srel, ssigma)
	nrel, nsigma := engineBenchNumeric(t, 120)
	runParity(t, "numeric", nrel, nsigma)

	// Range probes are selective on the numeric workload (the string
	// workload's near-uniform name lengths legitimately fall back to the
	// sweep, which the selectivity guard is for).
	nres, err := New(nsigma).Impute(nrel)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Stats.EngineIndexProbes == 0 {
		t.Error("indexed numeric run answered no index probes")
	}
	if noIdx, err := New(nsigma, WithoutIndex()).Impute(nrel); err != nil {
		t.Fatal(err)
	} else if noIdx.Stats.EngineIndexProbes != 0 {
		t.Error("WithoutIndex run reported index probes")
	}
}
