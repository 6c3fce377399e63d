package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
)

// imputeOutcome captures everything a span-on/span-off parity check
// compares: the imputed bytes, the provenance records, the accuracy
// counters, and the decision-trace JSONL.
func imputeOutcome(t *testing.T, ctx context.Context) (*Result, []byte) {
	t.Helper()
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	tr := obs.NewRingTracer(0, 1)
	sess, err := NewSession(nil, sigma, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Impute(ctx, rel)
	if err != nil {
		t.Fatal(err)
	}
	return res, traceJSONL(t, tr)
}

// TestSpanParity asserts the imputation output is byte-identical with
// request tracing enabled and disabled: spans observe the run, they
// must never steer it.
func TestSpanParity(t *testing.T) {
	offRes, offTrace := imputeOutcome(t, context.Background())

	ring := obs.NewSpanRing(4)
	ctx, reqTrace := obs.StartRequest(context.Background(), ring, "test", obs.SpanContext{})
	onRes, onTrace := imputeOutcome(t, ctx)
	reqTrace.Finish()

	if !offRes.Relation.Equal(onRes.Relation) {
		t.Error("imputed relation diverged with spans enabled")
	}
	if len(offRes.Imputations) != len(onRes.Imputations) {
		t.Fatalf("imputation counts diverged: %d vs %d", len(offRes.Imputations), len(onRes.Imputations))
	}
	for i := range offRes.Imputations {
		if offRes.Imputations[i] != onRes.Imputations[i] {
			t.Errorf("imputation %d diverged:\n off: %+v\n on:  %+v",
				i, offRes.Imputations[i], onRes.Imputations[i])
		}
	}
	if accuracyOf(offRes) != accuracyOf(onRes) {
		t.Errorf("accuracy counters diverged:\n off: %+v\n on:  %+v",
			accuracyOf(offRes), accuracyOf(onRes))
	}
	if !bytes.Equal(offTrace, onTrace) {
		t.Error("decision-trace JSONL diverged with spans enabled")
	}
	if err := reqTrace.CheckWellFormed(); err != nil {
		t.Errorf("request trace malformed: %v", err)
	}
}

// TestSessionImputeSpanTree pins the shape of the span tree one Impute
// run emits: impute → preprocess + per-cell spans, each cell holding
// candidate_search / ranking / verify children with the donor-pool
// attributes.
func TestSessionImputeSpanTree(t *testing.T) {
	ring := obs.NewSpanRing(4)
	ctx, reqTrace := obs.StartRequest(context.Background(), ring, "POST /v1/impute", obs.SpanContext{})
	res, _ := imputeOutcome(t, ctx)
	reqTrace.Finish()
	if res.Stats.Imputed == 0 {
		t.Fatal("fixture imputed nothing; the tree assertions below would be vacuous")
	}
	if err := reqTrace.CheckWellFormed(); err != nil {
		t.Fatalf("trace malformed: %v", err)
	}

	root := reqTrace.Tree()
	if len(root.Children) != 1 || root.Children[0].Name != "impute" {
		t.Fatalf("root children = %+v, want one impute span", names(root.Children))
	}
	imp := root.Children[0]
	if imp.Attrs["missing_cells"] != int64(res.Stats.MissingCells) ||
		imp.Attrs["imputed"] != int64(res.Stats.Imputed) {
		t.Errorf("impute attrs = %+v, want missing_cells=%d imputed=%d",
			imp.Attrs, res.Stats.MissingCells, res.Stats.Imputed)
	}

	var cells, reevals int
	sawPre := false
	for _, child := range imp.Children {
		switch child.Name {
		case "preprocess":
			sawPre = true
			if child.Attrs["missing_cells"] != int64(res.Stats.MissingCells) {
				t.Errorf("preprocess attrs = %+v", child.Attrs)
			}
		case "cell":
			cells++
			for _, key := range []string{"row", "attr", "imputed"} {
				if _, ok := child.Attrs[key]; !ok {
					t.Errorf("cell missing attr %q: %+v", key, child.Attrs)
				}
			}
			var search, rank, verify int
			for _, phase := range child.Children {
				switch phase.Name {
				case "candidate_search":
					search++
					if _, ok := phase.Attrs["donor_pool"]; !ok {
						t.Errorf("candidate_search missing donor_pool: %+v", phase.Attrs)
					}
					if _, ok := phase.Attrs["candidates"]; !ok {
						t.Errorf("candidate_search missing candidates: %+v", phase.Attrs)
					}
				case "ranking":
					rank++
				case "verify":
					verify++
				default:
					t.Errorf("unexpected cell child %q", phase.Name)
				}
			}
			if search == 0 {
				t.Error("cell span has no candidate_search child")
			}
			// A cell whose clusters all came up empty legitimately has no
			// ranking/verify spans; the resolved cells must have both.
			if child.Attrs["imputed"] == int64(1) && (rank == 0 || verify == 0) {
				t.Errorf("imputed cell lacks ranking/verify children: rank=%d verify=%d", rank, verify)
			}
		case "key_reeval":
			reevals++
		default:
			t.Errorf("unexpected impute child %q", child.Name)
		}
	}
	if !sawPre {
		t.Error("no preprocess span")
	}
	if cells != res.Stats.MissingCells {
		t.Errorf("got %d cell spans, want %d", cells, res.Stats.MissingCells)
	}
	if reevals != res.Stats.Imputed {
		t.Errorf("got %d key_reeval spans, want %d", reevals, res.Stats.Imputed)
	}
}

func names(nodes []*obs.SpanNode) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}

// TestSpanDisabledAddsNoAllocs is the end-to-end allocation guard for
// the disabled path: an Impute through a value-carrying context without
// a span must allocate exactly as much as one through a bare context —
// the span plumbing's context lookups and inert Child/End calls cost
// nothing. (The per-op micro-guard lives in obs.TestSpanDisabledZeroAlloc;
// the absolute per-Impute allocation count is pinned by the benchdiff
// baselines.)
func TestSpanDisabledAddsNoAllocs(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	sess, err := NewSession(nil, sigma)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := sess.Impute(ctx, rel); err != nil {
				t.Fatal(err)
			}
		})
	}
	type otherKey struct{}
	bare := run(context.Background())
	withValues := run(context.WithValue(context.Background(), otherKey{}, 42))
	if withValues > bare {
		t.Fatalf("span-less Impute allocates more through a value-carrying context: %v > %v allocs",
			withValues, bare)
	}
}

// TestSpanRingRaceUnderConcurrentSessions stress-tests the span ring
// under concurrent Session traffic (run under -race by make race): every
// completed trace must be well-formed — children inside their parents'
// windows, no orphan parents — while the ring is read mid-flight.
func TestSpanRingRaceUnderConcurrentSessions(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	base := table2(t)
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewSpanRing(8)
	const workers, rounds = 8, 6
	var wg, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() { // concurrent ring reader
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = ring.Traces()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, reqTrace := obs.StartRequest(context.Background(), ring, "impute", obs.SpanContext{})
				if _, err := sess.Impute(ctx, rel); err != nil {
					t.Error(err)
				}
				reqTrace.Finish()
				if err := reqTrace.CheckWellFormed(); err != nil {
					t.Errorf("trace malformed: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if ring.Len() == 0 {
		t.Fatal("ring retained no traces")
	}
	for _, tr := range ring.Traces() {
		if err := tr.CheckWellFormed(); err != nil {
			t.Errorf("retained trace malformed: %v", err)
		}
	}
}
