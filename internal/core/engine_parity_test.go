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
// produce the same imputations. "pooled" runs on a matcher the pool
// hands back after a run over the same relation with its rows reversed:
// a view of the same length, so kept columns, were any left behind,
// could pass for valid on an attribute neither run writes.
func parityConfigs() map[string]func(rel *dataset.Relation, sigma rfd.Set, opts ...Option) (*Result, error) {
	run := func(rel *dataset.Relation, sigma rfd.Set, opts ...Option) (*Result, error) {
		return New(sigma, opts...).Impute(rel)
	}
	return map[string]func(*dataset.Relation, rfd.Set, ...Option) (*Result, error){
		"default": run,
		"pooled": func(rel *dataset.Relation, sigma rfd.Set, opts ...Option) (*Result, error) {
			rev := dataset.NewRelation(rel.Schema())
			for i := rel.Len() - 1; i >= 0; i-- {
				if err := rev.Append(rel.Row(i).Clone()); err != nil {
					return nil, err
				}
			}
			if _, err := run(rev, sigma); err != nil {
				return nil, err
			}
			return run(rel, sigma, opts...)
		},
	}
}

// accuracyStats extracts the Stats fields that are algorithmic outcomes
// (as opposed to phase timings).
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
	for name, run := range parityConfigs() {
		tr := obs.NewRingTracer(0, 1)
		res, err := run(rel, sigma, WithTracer(tr))
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
// and checks the candidate-search counters: every cluster sweeps every
// other row, and no index counter moves.
func TestEngineParityWorkloads(t *testing.T) {
	srel, ssigma := engineBenchStrings(t, 12)
	runParity(t, "strings", srel, ssigma)
	nrel, nsigma := engineBenchNumeric(t, 120)
	runParity(t, "numeric", nrel, nsigma)

	nres, err := New(nsigma).Impute(nrel)
	if err != nil {
		t.Fatal(err)
	}
	st := nres.Stats
	if st.ClustersScanned == 0 || st.DonorsScanned != st.ClustersScanned*(nrel.Len()-1) {
		t.Errorf("donors scanned %d over %d clusters of %d rows, want Len()-1 per cluster",
			st.DonorsScanned, st.ClustersScanned, nrel.Len())
	}
	if st.IndexHits != 0 || st.IndexMisses != 0 || st.EngineIndexProbes != 0 {
		t.Errorf("index counters moved: %+v", st)
	}
}
