package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rfd"
)

// dirtyTable4 copies the Table 4 base and knocks out a rotating cell in
// every ninth row — a self-contained workload with plenty of intact
// donors left for each hole.
func dirtyTable4(tb testing.TB, base *dataset.Relation) *dataset.Relation {
	tb.Helper()
	rel := dataset.NewRelation(base.Schema())
	for i := 0; i < base.Len(); i++ {
		t := base.Row(i).Clone()
		if i%9 == 0 {
			t[(i/9)%len(t)] = dataset.Null
		}
		rel.MustAppend(t)
	}
	return rel
}

// assertRunsEqual pins the full byte-identity contract between two
// session runs: final relation (struct and CSV bytes), Imputations,
// Stats (wall clock zeroed), and the trace JSONL stream.
func assertRunsEqual(t *testing.T, label string, wantRes, gotRes *Result, wantTrace, gotTrace []byte) {
	t.Helper()
	if !gotRes.Relation.Equal(wantRes.Relation) {
		t.Errorf("%s: imputed relation diverged", label)
	}
	if !reflect.DeepEqual(gotRes.Imputations, wantRes.Imputations) {
		t.Errorf("%s: imputations diverged:\ngot:  %+v\nwant: %+v", label, gotRes.Imputations, wantRes.Imputations)
	}
	wantStats, gotStats := wantRes.Stats, gotRes.Stats
	wantStats.Phases, gotStats.Phases = PhaseTimes{}, PhaseTimes{} // wall clock
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("%s: stats diverged:\ngot:  %+v\nwant: %+v", label, gotStats, wantStats)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("%s: trace JSONL diverged:\n--- got ---\n%s\n--- want ---\n%s", label, gotTrace, wantTrace)
	}
	var wantCSV, gotCSV bytes.Buffer
	if err := dataset.WriteCSV(&wantCSV, wantRes.Relation); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(&gotCSV, gotRes.Relation); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Errorf("%s: CSV bytes diverged", label)
	}
}

// TestDonorShardGridParity: across the (shards x workers) grid, both
// session modes produce byte-identical results to the unsharded serial
// reference — the contract that makes -shards a pure capacity knob.
func TestDonorShardGridParity(t *testing.T) {
	table4 := table4Base(t)
	workloads := []struct {
		name  string
		base  *dataset.Relation // nil = self-contained mode
		sigma rfd.Set
		req   *dataset.Relation
	}{
		{"table2-self", nil, figure1Sigma(t, table2(t).Schema()), table2(t)},
		{"table4-self", nil, table4Sigma(t, table4), dirtyTable4(t, table4)},
		{"table4-donor-pool", table4, table4Sigma(t, table4), table4Request(t, table4)},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			ref, err := NewSession(wl.base, wl.sigma)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantTrace := runSession(t, ref, wl.req)
			if wantRes.Stats.Imputed == 0 {
				t.Fatal("workload imputed nothing; the parity grid is vacuous")
			}
			for _, shards := range []int{1, 2, 4, 8} {
				for _, workers := range []int{1, 4} {
					sess, err := NewSession(wl.base, wl.sigma,
						WithDonorShards(shards), WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					gotRes, gotTrace := runSession(t, sess, wl.req)
					label := fmt.Sprintf("%s shards=%d workers=%d", wl.name, shards, workers)
					assertRunsEqual(t, label, wantRes, gotRes, wantTrace, gotTrace)
				}
			}
		})
	}
}

// TestShardedCandidateScanEquivalence: the scatter-gather donor sweep
// returns bit-identical candidate lists to the serial scan on random
// instances, for every shard count, and its per-sub-pool counters
// account for every donor row exactly once.
func TestShardedCandidateScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 60; trial++ {
		rel := randomInstance(rng)
		sigma := randomSigma(rng, rel.Schema().Len())
		var deps rfd.Set
		attr := rng.Intn(rel.Schema().Len())
		for _, dep := range sigma {
			if dep.RHS.Attr == attr {
				deps = append(deps, dep)
			}
		}
		if len(deps) == 0 {
			continue
		}
		row := rng.Intn(rel.Len())
		m := engine.Compile(rel).Matcher()
		serial := findCandidateTuples(context.Background(), m, row, attr, deps)
		for _, shards := range []int{1, 2, 3, 8} {
			stats := newDonorShardStats(shards)
			rec := obs.NewMetrics()
			got := findCandidateTuplesSharded(context.Background(), m, row, attr, deps, shards, stats, rec)
			if len(serial) != len(got) {
				t.Fatalf("trial %d shards %d: candidate counts %d vs %d", trial, shards, len(serial), len(got))
			}
			for i := range serial {
				if serial[i] != got[i] {
					t.Fatalf("trial %d shards %d: candidate %d differs: %+v vs %+v",
						trial, shards, i, serial[i], got[i])
				}
			}
			var donors, cands int64
			for _, s := range stats.snapshot() {
				donors += s.Donors
				cands += s.Candidates
			}
			if donors != int64(rel.Len()-1) {
				t.Errorf("trial %d shards %d: counters saw %d donors, want %d",
					trial, shards, donors, rel.Len()-1)
			}
			if cands != int64(len(serial)) {
				t.Errorf("trial %d shards %d: counters saw %d candidates, want %d",
					trial, shards, cands, len(serial))
			}
			snap := rec.Snapshot()
			if snap.Counters["donor_shard_fanout"] == 0 {
				t.Errorf("trial %d shards %d: fan-out counter not recorded", trial, shards)
			}
		}
	}
}

// TestDonorShardStatsSurface: the session-level accumulator exists
// exactly when donor sharding is on, and a sharded run feeds it.
func TestDonorShardStatsSurface(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())

	plain, err := NewSession(nil, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if plain.DonorShardStats() != nil {
		t.Error("unsharded session exposes donor shard stats")
	}

	sess, err := NewSession(nil, sigma, WithDonorShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Impute(context.Background(), rel); err != nil {
		t.Fatal(err)
	}
	stats := sess.DonorShardStats()
	if len(stats) != 4 {
		t.Fatalf("donor shard stats = %v, want 4 entries", stats)
	}
	var scans int64
	for _, s := range stats {
		scans += s.Scans
	}
	if scans == 0 {
		t.Error("sharded run recorded no sub-pool scans")
	}
}

// TestArtifactSessionDonorShards: the artifact boot path honors
// WithDonorShards — the loaded replica runs the scatter-gather sweep,
// exposes the accumulator, and stays byte-identical to the unsharded
// freshly compiled session.
func TestArtifactSessionDonorShards(t *testing.T) {
	base := table4Base(t)
	sigma := table4Sigma(t, base)
	req := table4Request(t, base)
	fresh, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fresh.EncodeArtifact()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewSessionFromArtifact(data, WithDonorShards(4))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantTrace := runSession(t, fresh, req)
	gotRes, gotTrace := runSession(t, loaded, req)
	assertRunsEqual(t, "artifact-donor-shards", wantRes, gotRes, wantTrace, gotTrace)
	stats := loaded.DonorShardStats()
	if len(stats) != 4 {
		t.Fatalf("loaded session donor shard stats = %v, want 4 entries", stats)
	}
	var scans int64
	for _, s := range stats {
		scans += s.Scans
	}
	if scans == 0 {
		t.Error("loaded session recorded no sub-pool scans")
	}
}

// TestDonorShardStatsNilSafety: the accumulator's methods tolerate nil
// and out-of-range shards.
func TestDonorShardStatsNilSafety(t *testing.T) {
	var s *donorShardStats
	s.record(0, 1, 1) // must not panic
	if s.snapshot() != nil {
		t.Error("nil accumulator produced a snapshot")
	}
	st := newDonorShardStats(2)
	st.record(-1, 5, 5)
	st.record(2, 5, 5)
	for _, sh := range st.snapshot() {
		if sh.Scans != 0 {
			t.Error("out-of-range record landed in a shard")
		}
	}
}

// TestOptionsRejectNegativeDonorShards: construction-time validation
// covers the new knob.
func TestOptionsRejectNegativeDonorShards(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	if _, err := NewSession(nil, sigma, WithDonorShards(-2)); err == nil {
		t.Error("negative DonorShards accepted")
	}
}

// TestDonorsIn: the per-band donor accounting sums to the serial
// sweep's Len()-1 wherever the query row falls.
func TestDonorsIn(t *testing.T) {
	for _, n := range []int{1, 2, 7, 20} {
		for _, shards := range []int{1, 2, 3, 8} {
			for row := 0; row < n; row++ {
				var total int64
				for _, rg := range par.Chunks(n, shards) {
					total += donorsIn(rg[0], rg[1], row)
				}
				if total != int64(n-1) {
					t.Fatalf("n=%d shards=%d row=%d: donors %d, want %d", n, shards, row, total, n-1)
				}
			}
		}
	}
}
