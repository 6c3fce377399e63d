package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// deltaPool is the reservoir the delta streams draw inserted tuples
// from: same generator family as the base, different seed, so inserts
// mix familiar strings (shared interned ids) with novel ones (id-space
// growth) — both evolution paths exercised.
func deltaPool(tb testing.TB, n int) *dataset.Relation {
	tb.Helper()
	pool, err := datagen.ByName("restaurant", n, 904)
	if err != nil {
		tb.Fatal(err)
	}
	return pool
}

// applyDeltaToRelation mirrors ApplyDelta's documented semantics on a
// plain relation — updates on the pre-delta numbering, then deletes
// with order-preserving compaction, then inserts — giving the parity
// tests an independent model of what each epoch's logical base must be.
func applyDeltaToRelation(tb testing.TB, rel *dataset.Relation, d Delta) *dataset.Relation {
	tb.Helper()
	n := rel.Len()
	rows := make([]dataset.Tuple, n)
	for i := 0; i < n; i++ {
		rows[i] = rel.Row(i).Clone()
	}
	for _, u := range d.Updates {
		rows[u.Row][u.Attr] = u.Value
	}
	del := make([]bool, n)
	for _, r := range d.Deletes {
		del[r] = true
	}
	out := dataset.NewRelation(rel.Schema())
	for i, t := range rows {
		if !del[i] {
			out.MustAppend(t)
		}
	}
	for _, t := range d.Inserts {
		out.MustAppend(t.Clone())
	}
	return out
}

// deltaStream builds a deterministic mixed mutation stream: inserts
// from the reservoir, updates splicing values across rows (plus a null
// knock-out), deletes walking the instance — every third step touching
// each mutation kind so no step shape goes untested.
func deltaStream(tb testing.TB, base *dataset.Relation, pool *dataset.Relation, steps int) []Delta {
	tb.Helper()
	m := base.Schema().Len()
	out := make([]Delta, 0, steps)
	cur := base.Len()
	next := 0 // next reservoir row to insert
	for s := 0; s < steps; s++ {
		var d Delta
		switch s % 3 {
		case 0: // grow
			for k := 0; k < 2; k++ {
				d.Inserts = append(d.Inserts, pool.Row((next+k)%pool.Len()).Clone())
			}
			next += 2
		case 1: // mutate in place
			r1, r2 := (s*7)%cur, (s*13+5)%cur
			a1, a2 := s%m, (s+2)%m
			d.Updates = []CellUpdate{
				{Row: r1, Attr: a1, Value: pool.Row((s * 3) % pool.Len())[a1]},
				{Row: r2, Attr: a2, Value: dataset.Null},
				{Row: r1, Attr: a1, Value: pool.Row((s*5 + 1) % pool.Len())[a1]}, // later update wins
			}
		case 2: // churn: shrink and grow in one batch
			d.Deletes = []int{(s * 11) % cur, (s * 11) % cur, (s*17 + 3) % cur} // duplicate on purpose
			d.Inserts = append(d.Inserts, pool.Row(next%pool.Len()).Clone())
			next++
		}
		dd := map[int]bool{}
		for _, r := range d.Deletes {
			dd[r] = true
		}
		cur += len(d.Inserts) - len(dd)
		out = append(out, d)
	}
	return out
}

// assertDeltaParity pins the byte-identity contract between two session
// runs — final relation (struct and CSV bytes), Imputations, Stats and
// the trace JSONL stream — with only the wall clock zeroed: everything
// else must match byte for byte.
func assertDeltaParity(t *testing.T, label string, wantRes, gotRes *Result, wantTrace, gotTrace []byte) {
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

// TestEpochParityGrid is the live-data correctness bar: drive a
// 21-step mixed delta stream (inserts, updates with null knock-outs and
// same-cell overwrites, duplicate deletes) through a live session and,
// at every epoch, demand the evolved session is indistinguishable —
// imputations, Stats, trace JSONL, CSV bytes — from a from-scratch
// NewSession over the same logical relation with the same repaired Σ.
// Candidate search is one pass per cluster, what the donorShards=1
// configuration of the grid was, and the subtest keeps that name.
func TestEpochParityGrid(t *testing.T) {
	base := table4Base(t)
	sigma := table4Sigma(t, base)
	pool := deltaPool(t, 90)
	req := table4Request(t, base)
	stream := deltaStream(t, base, pool, 21)

	t.Run("donorShards=1", func(t *testing.T) {
		live, err := NewSession(base, sigma)
		if err != nil {
			t.Fatal(err)
		}
		mirror := base.Clone()
		for step, d := range stream {
			dr, err := live.ApplyDelta(context.Background(), d)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if dr.Epoch != uint64(step+1) {
				t.Fatalf("step %d: epoch %d, want %d", step, dr.Epoch, step+1)
			}
			mirror = applyDeltaToRelation(t, mirror, d)
			if dr.Rows != mirror.Len() {
				t.Fatalf("step %d: %d rows, mirror has %d", step, dr.Rows, mirror.Len())
			}

			fresh, err := NewSession(mirror, live.Sigma())
			if err != nil {
				t.Fatalf("step %d: fresh recompile: %v", step, err)
			}
			wantRes, wantTrace := runSession(t, fresh, req)
			gotRes, gotTrace := runSession(t, live, req)
			assertDeltaParity(t, fmt.Sprintf("epoch %d", step+1), wantRes, gotRes, wantTrace, gotTrace)
		}
		if live.Epoch() != uint64(len(stream)) {
			t.Fatalf("final epoch %d, want %d", live.Epoch(), len(stream))
		}
	})
}

// TestApplyDeltaConcurrentImpute is the RCU liveness half: a rolling
// update stream publishes epochs while reader goroutines hammer Impute
// and Explain. No reader may ever error, block on a writer, or observe
// a torn (view, Σ) pair — and the race detector (make race covers this
// package) must stay quiet. Run counts are kept modest so -race
// finishes quickly; the interleaving, not the volume, is the test.
func TestApplyDeltaConcurrentImpute(t *testing.T) {
	base := table4Base(t)
	sigma := table4Sigma(t, base)
	pool := deltaPool(t, 60)
	req := table4Request(t, base)
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	stream := deltaStream(t, base, pool, 24)

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if r == 0 && i%4 == 3 {
					if _, err := sess.Explain(context.Background(), req, 0, 1); err != nil {
						errs <- fmt.Errorf("reader %d explain: %w", r, err)
						return
					}
					continue
				}
				res, err := sess.Impute(context.Background(), req)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if res.Stats.MissingCells != req.CountMissing() {
					errs <- fmt.Errorf("reader %d: torn run: %d missing, want %d",
						r, res.Stats.MissingCells, req.CountMissing())
					return
				}
			}
		}(r)
	}
	for step, d := range stream {
		if _, err := sess.ApplyDelta(context.Background(), d); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("step %d: %v", step, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sess.Epoch() != uint64(len(stream)) {
		t.Fatalf("epoch %d after %d deltas", sess.Epoch(), len(stream))
	}
}

// TestApplyDeltaValidation: a bad batch is rejected whole — the epoch
// does not advance, and the session keeps serving.
func TestApplyDeltaValidation(t *testing.T) {
	base := table2(t)
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	n, m := base.Len(), base.Schema().Len()
	classAttr, ok := base.Schema().Index("Class")
	if !ok {
		t.Fatal("table2 lost its Class attribute")
	}
	bad := []struct {
		name string
		d    Delta
	}{
		{"empty", Delta{}},
		{"update row out of range", Delta{Updates: []CellUpdate{{Row: n, Attr: 0, Value: dataset.NewString("x")}}}},
		{"update negative row", Delta{Updates: []CellUpdate{{Row: -1, Attr: 0, Value: dataset.NewString("x")}}}},
		{"update attr out of range", Delta{Updates: []CellUpdate{{Row: 0, Attr: m, Value: dataset.NewString("x")}}}},
		{"update kind mismatch", Delta{Updates: []CellUpdate{{Row: 0, Attr: classAttr, Value: dataset.NewString("six")}}}},
		{"delete out of range", Delta{Deletes: []int{n}}},
		{"delete negative", Delta{Deletes: []int{-2}}},
		{"insert arity", Delta{Inserts: []dataset.Tuple{make(dataset.Tuple, m+1)}}},
		{"insert kind mismatch", Delta{Inserts: []dataset.Tuple{func() dataset.Tuple {
			tu := base.Row(0).Clone()
			tu[classAttr] = dataset.NewString("six")
			return tu
		}()}}},
	}
	for _, tc := range bad {
		if _, err := sess.ApplyDelta(context.Background(), tc.d); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if sess.Epoch() != 0 {
		t.Fatalf("epoch advanced to %d on rejected deltas", sess.Epoch())
	}
	if _, err := sess.Impute(context.Background(), sessionRequest(t)); err != nil {
		t.Fatalf("session broken after rejected deltas: %v", err)
	}

	// Self-contained sessions have no base to mutate.
	selfContained, err := NewSession(nil, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := selfContained.ApplyDelta(context.Background(), Delta{Deletes: []int{0}}); err == nil {
		t.Fatal("self-contained ApplyDelta accepted")
	}

	// A cancelled context aborts before publication.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.ApplyDelta(ctx, Delta{Deletes: []int{0}}); err == nil {
		t.Fatal("cancelled ApplyDelta succeeded")
	}
	if sess.Epoch() != 0 {
		t.Fatal("cancelled ApplyDelta advanced the epoch")
	}
}

// TestApplyDeltaSigmaRevalidation: an update that breaks a dependency
// must come back repaired — the set still holds on the new instance.
func TestApplyDeltaSigmaRevalidation(t *testing.T) {
	base := table4Base(t)
	sigma := table4Sigma(t, base)
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// Clone row 0 with one attribute swapped to a distant value: the
	// near-duplicate pair pressures every rule whose LHS still matches.
	tu := base.Row(0).Clone()
	nameAttr := 0
	if a, ok := base.Schema().Index("name"); ok {
		nameAttr = a
	}
	tu[nameAttr] = dataset.NewString("zzzzzzzzzzzzzzzzzzzzzzzz")
	res, err := sess.ApplyDelta(context.Background(), Delta{Inserts: []dataset.Tuple{tu}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rules != len(sess.Sigma()) {
		t.Fatalf("DeltaResult.Rules %d != |Sigma()| %d", res.Rules, len(sess.Sigma()))
	}
	// The repaired set must hold on the evolved instance: a fresh
	// discovery-grade check is overkill, but a fresh session over the
	// same relation and set must at minimum impute without tripping the
	// key-RFDc machinery differently (covered by the parity grid); here
	// we pin the accounting: dropped + kept = original.
	if res.SigmaDropped+res.Rules != len(sigma) {
		t.Fatalf("dropped %d + kept %d != original %d", res.SigmaDropped, res.Rules, len(sigma))
	}
}

// TestApplyDeltaEpochAccounting: epochs retire exactly when their last
// reader lets go — immediately on publish with no readers pinned.
func TestApplyDeltaEpochAccounting(t *testing.T) {
	rec := obs.NewMetrics()
	base := table2(t)
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tu := base.Row(i % base.Len()).Clone()
		if _, err := sess.ApplyDelta(context.Background(), Delta{Inserts: []dataset.Tuple{tu}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Counter(obs.CtrEpochsRetired); got != 3 {
		t.Fatalf("epochs_retired = %d, want 3", got)
	}
	if got := rec.Counter(obs.CtrDeltaApplied); got != 3 {
		t.Fatalf("delta_applied = %d, want 3", got)
	}
	if got := rec.Counter(obs.CtrDeltaRowsInserted); got != 3 {
		t.Fatalf("delta_rows_inserted = %d, want 3", got)
	}
}

// TestWithSigmaSnapshotsEpoch: a WithSigma-derived session is a
// snapshot — the parent's later deltas must not reach it.
func TestWithSigmaSnapshotsEpoch(t *testing.T) {
	base := table4Base(t)
	sigma := table4Sigma(t, base)
	req := table4Request(t, base)
	parent, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := parent.WithSigma(sigma)
	if err != nil {
		t.Fatal(err)
	}
	before, err := derived.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	pool := deltaPool(t, 10)
	for _, d := range deltaStream(t, base, pool, 3) {
		if _, err := parent.ApplyDelta(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if parent.Epoch() != 3 {
		t.Fatalf("parent epoch %d, want 3", parent.Epoch())
	}
	if derived.Epoch() != 0 {
		t.Fatalf("derived epoch %d, want the snapshot's 0", derived.Epoch())
	}
	after, err := derived.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Relation.Equal(before.Relation) {
		t.Fatal("derived session's results changed under the parent's deltas")
	}
}

// TestApplyDeltaCopiesUpdatedRowsOnly: a successor epoch shares its
// surviving tuples with the epoch it replaces, and an update writes a
// private copy of its row. An update applied to the parent must not
// reach epoch 0, which a WithSigma sibling still serves, and a delta
// applied to the sibling must build on epoch 0's values.
func TestApplyDeltaCopiesUpdatedRowsOnly(t *testing.T) {
	base := table4Base(t)
	sigma := table4Sigma(t, base)
	parent, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := parent.WithSigma(sigma)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := parent.BaseView().Relation()
	const row = 3
	city, phone := base.Schema().MustIndex("City"), base.Schema().MustIndex("Phone")
	oldCity, oldPhone := epoch0.Get(row, city), epoch0.Get(row, phone)
	newCity, newPhone := dataset.NewString("Topanga"), dataset.NewString("310/000-0000")

	if _, err := parent.ApplyDelta(context.Background(), Delta{
		Updates: []CellUpdate{{Row: row, Attr: city, Value: newCity}},
	}); err != nil {
		t.Fatal(err)
	}
	epoch1 := parent.BaseView().Relation()
	if got := epoch1.Get(row, city); !got.Equal(newCity) {
		t.Fatalf("parent epoch 1 City = %v, want %v", got, newCity)
	}
	if got := epoch0.Get(row, city); !got.Equal(oldCity) {
		t.Fatalf("parent's update reached epoch 0: City = %v, want %v", got, oldCity)
	}
	if &epoch1.Row(0)[0] != &epoch0.Row(0)[0] {
		t.Error("an untouched row was copied into the successor epoch")
	}

	if _, err := sibling.ApplyDelta(context.Background(), Delta{
		Updates: []CellUpdate{{Row: row, Attr: phone, Value: newPhone}},
	}); err != nil {
		t.Fatal(err)
	}
	sib := sibling.BaseView().Relation()
	if got := sib.Get(row, city); !got.Equal(oldCity) {
		t.Fatalf("sibling delta did not build on epoch 0: City = %v, want %v", got, oldCity)
	}
	if got := sib.Get(row, phone); !got.Equal(newPhone) {
		t.Fatalf("sibling epoch 1 Phone = %v, want %v", got, newPhone)
	}
	for label, rel := range map[string]*dataset.Relation{"epoch 0": epoch0, "parent epoch 1": epoch1} {
		if got := rel.Get(row, phone); !got.Equal(oldPhone) {
			t.Errorf("sibling's update reached %s: Phone = %v, want %v", label, got, oldPhone)
		}
	}
}

// TestArtifactRoundTripAfterDeltas: encoding an evolved session
// snapshots the current epoch, the loaded replica serves it
// byte-identically, and — the artifact-session half of the live-data
// story — the loaded replica accepts further deltas itself.
func TestArtifactRoundTripAfterDeltas(t *testing.T) {
	base := table4Base(t)
	sigma := table4Sigma(t, base)
	pool := deltaPool(t, 30)
	req := table4Request(t, base)
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	mirror := base.Clone()
	stream := deltaStream(t, base, pool, 6)
	for _, d := range stream {
		if _, err := sess.ApplyDelta(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		mirror = applyDeltaToRelation(t, mirror, d)
	}

	data, err := sess.EncodeArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if ai := sess.Artifact(); ai == nil || ai.Tuples != mirror.Len() {
		t.Fatalf("artifact info %+v does not describe the evolved epoch (%d rows)", sess.Artifact(), mirror.Len())
	}
	loaded, err := NewSessionFromArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != 0 {
		t.Fatalf("loaded session epoch %d, want a fresh 0", loaded.Epoch())
	}
	wantRes, wantTrace := runSession(t, sess, req)
	gotRes, gotTrace := runSession(t, loaded, req)
	assertDeltaParity(t, "loaded-after-deltas", wantRes, gotRes, wantTrace, gotTrace)

	// The loaded session is itself live: one more delta, checked against
	// a fresh recompile of the mirrored relation.
	extra := deltaStream(t, mirror, pool, 1)[0]
	if _, err := loaded.ApplyDelta(context.Background(), extra); err != nil {
		t.Fatalf("delta on artifact-loaded session: %v", err)
	}
	mirror = applyDeltaToRelation(t, mirror, extra)
	fresh, err := NewSession(mirror, loaded.Sigma())
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantTrace = runSession(t, fresh, req)
	gotRes, gotTrace = runSession(t, loaded, req)
	assertDeltaParity(t, "artifact-then-delta", wantRes, gotRes, wantTrace, gotTrace)
}
