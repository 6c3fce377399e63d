package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// kernelVariants are the string-kernel selections that must be
// end-to-end indistinguishable: the bit-parallel Myers kernel and the
// banded-DP reference compute the same function, so swapping them can
// never change an imputation, a counter, or a trace byte.
var kernelVariants = []struct {
	name string
	k    distance.Kernel
}{
	{"auto", distance.KernelAuto},
	{"myers", distance.KernelMyers},
	{"banded", distance.KernelBanded},
}

// runKernelParity imputes one workload under every kernel and fails
// unless the imputations, final relation, full Stats (accuracy AND
// scan-efficiency counters — the kernels share one dispatch path, so
// even the scan counters must match), and trace JSONL bytes are identical.
func runKernelParity(t *testing.T, label string, rel *dataset.Relation, sigma rfd.Set) {
	t.Helper()
	type outcome struct {
		res   *Result
		trace []byte
	}
	outcomes := map[string]outcome{}
	for _, kv := range kernelVariants {
		prev := distance.SetKernel(kv.k)
		tr := obs.NewRingTracer(0, 1)
		res, err := New(sigma, WithTracer(tr)).Impute(rel)
		distance.SetKernel(prev)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, kv.name, err)
		}
		outcomes[kv.name] = outcome{res: res, trace: traceJSONL(t, tr)}
	}
	ref := outcomes["auto"]
	for _, kv := range kernelVariants {
		o := outcomes[kv.name]
		if !ref.res.Relation.Equal(o.res.Relation) {
			t.Errorf("%s/%s: final relation diverged from auto kernel", label, kv.name)
		}
		if len(ref.res.Imputations) != len(o.res.Imputations) {
			t.Fatalf("%s/%s: %d imputations vs %d", label, kv.name,
				len(o.res.Imputations), len(ref.res.Imputations))
		}
		for i := range ref.res.Imputations {
			if ref.res.Imputations[i] != o.res.Imputations[i] {
				t.Errorf("%s/%s: imputation %d differs:\n%+v\n%+v",
					label, kv.name, i, o.res.Imputations[i], ref.res.Imputations[i])
			}
		}
		// The whole Stats struct except wall clock: kernels may differ in
		// speed, never in what they scanned or rejected.
		rs, os := ref.res.Stats, o.res.Stats
		rs.Phases, os.Phases = PhaseTimes{}, PhaseTimes{}
		if !reflect.DeepEqual(rs, os) {
			t.Errorf("%s/%s: Stats diverged:\n%+v\n%+v", label, kv.name, os, rs)
		}
		if !bytes.Equal(ref.trace, o.trace) {
			t.Errorf("%s/%s: trace JSONL diverged from auto kernel", label, kv.name)
		}
	}
}

// TestKernelParityTable2: the paper's worked example imputes
// byte-identically under every string kernel.
func TestKernelParityTable2(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	runKernelParity(t, "table2", rel, sigma)
}

// TestKernelParityWorkloads: the bench workloads (replicated Table 2
// strings; correlated numerics) under every kernel.
func TestKernelParityWorkloads(t *testing.T) {
	srel, ssigma := engineBenchStrings(t, 12)
	runKernelParity(t, "strings", srel, ssigma)
	nrel, nsigma := engineBenchNumeric(t, 120)
	runKernelParity(t, "numeric", nrel, nsigma)
}
