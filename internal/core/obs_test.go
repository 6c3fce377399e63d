package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// TestImputeStatsObservability is the acceptance check for the metrics
// layer: a paper-example run must report non-zero search, verification,
// and phase-timing figures, and the recorder must see the same totals.
func TestImputeStatsObservability(t *testing.T) {
	rel := table2(t)
	m := obs.NewMetrics()
	im := New(figure1Sigma(t, rel.Schema()), WithRecorder(m))
	res, err := im.Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats

	if st.DonorsScanned == 0 {
		t.Error("DonorsScanned = 0, want > 0")
	}
	if st.CandidatesEvaluated == 0 {
		t.Error("CandidatesEvaluated = 0, want > 0")
	}
	if st.FaultlessChecks == 0 {
		t.Error("FaultlessChecks = 0, want > 0")
	}
	if st.ClustersScanned == 0 {
		t.Error("ClustersScanned = 0, want > 0")
	}
	if st.CandidatesTried < st.Imputed {
		t.Errorf("CandidatesTried = %d < Imputed = %d", st.CandidatesTried, st.Imputed)
	}
	for name, d := range map[string]int64{
		"Preprocess":      int64(st.Phases.Preprocess),
		"CandidateSearch": int64(st.Phases.CandidateSearch),
		"Verify":          int64(st.Phases.Verify),
		"Total":           int64(st.Phases.Total),
	} {
		if d <= 0 {
			t.Errorf("Phases.%s = %d, want > 0", name, d)
		}
	}
	if st.Phases.Total < st.Phases.CandidateSearch {
		t.Errorf("Total %v < CandidateSearch %v", st.Phases.Total, st.Phases.CandidateSearch)
	}

	// Per-attribute attribution must account for every imputation.
	if len(st.ImputedByAttr) != rel.Schema().Len() {
		t.Fatalf("len(ImputedByAttr) = %d, want %d", len(st.ImputedByAttr), rel.Schema().Len())
	}
	sum := 0
	for _, n := range st.ImputedByAttr {
		sum += n
	}
	if sum != st.Imputed {
		t.Errorf("sum(ImputedByAttr) = %d, want Imputed = %d", sum, st.Imputed)
	}

	// The recorder received the same totals, batched at run end.
	s := m.Snapshot()
	for ctr, want := range map[string]int{
		"missing_cells":        st.MissingCells,
		"imputations":          st.Imputed,
		"donors_scanned":       st.DonorsScanned,
		"candidates_evaluated": st.CandidatesEvaluated,
		"faultless_checks":     st.FaultlessChecks,
		"faultless_failures":   st.VerifyRejections,
		"clusters_scanned":     st.ClustersScanned,
	} {
		if got := s.Counters[ctr]; got != int64(want) {
			t.Errorf("recorder %s = %d, want %d", ctr, got, want)
		}
	}
	if s.Phases["total"].Count != 1 || s.Phases["total"].Nanos != int64(st.Phases.Total) {
		t.Errorf("recorder total phase = %+v, want 1 obs of %d ns", s.Phases["total"], int64(st.Phases.Total))
	}
	if histN := s.Histograms["candidates_per_cell"].Count; histN != int64(st.ClustersScanned) {
		t.Errorf("candidates_per_cell observations = %d, want one per cluster scan (%d)", histN, st.ClustersScanned)
	}
}

// TestImputeStatsWithoutRecorder checks Result.Stats is populated even
// when no recorder is configured (the default Nop path).
func TestImputeStatsWithoutRecorder(t *testing.T) {
	rel := table2(t)
	res, err := New(figure1Sigma(t, rel.Schema())).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DonorsScanned == 0 || res.Stats.FaultlessChecks == 0 || res.Stats.Phases.Total <= 0 {
		t.Errorf("stats without recorder = %+v", res.Stats)
	}
}

// TestParallelImputeRaceStress drives many concurrent ImputeContext calls
// over a shared Σ, a shared input relation, and a shared recorder. Run
// with -race this pins down that the imputer is stateless across calls
// and the metrics sink is lock-free safe.
func TestParallelImputeRaceStress(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	m := obs.NewMetrics()
	// A shared sampling tracer at 100%: every concurrent run's every cell
	// delivers its full event sequence into one ring. The capacity covers
	// all traces, so none is evicted and all can be audited afterwards.
	const goroutines = 8
	const iterations = 5
	tr := obs.NewRingTracer(goroutines*iterations*4, 1)
	im := New(sigma, WithRecorder(m), WithTracer(tr))

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iterations)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				res, err := im.ImputeContext(context.Background(), rel)
				if err != nil {
					errs <- err
					return
				}
				if res.Stats.Imputed != 4 {
					errs <- &statErr{got: res.Stats.Imputed}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := m.Snapshot()
	if got := s.Counters["imputations"]; got != goroutines*iterations*4 {
		t.Errorf("shared recorder imputations = %d, want %d", got, goroutines*iterations*4)
	}
	if got := s.Phases["total"].Count; got != goroutines*iterations {
		t.Errorf("shared recorder total-phase count = %d, want %d", got, goroutines*iterations)
	}

	// Every traced cell's sequence must be well-formed and free of
	// foreign events: concurrent runs deliver whole cells atomically, so
	// no interleaving is possible.
	cells := tr.Cells()
	if len(cells) != goroutines*iterations*4 {
		t.Fatalf("ring holds %d cell traces, want %d (evicted %d)",
			len(cells), goroutines*iterations*4, tr.Evicted())
	}
	for _, evs := range cells {
		if len(evs) == 0 {
			t.Fatal("empty cell trace in ring")
		}
		row, attr := evs[0].Row, evs[0].Attr
		if evs[0].Kind != obs.EvCellStarted {
			t.Errorf("cell (%d,%d): first event %v, want cell_started", row, attr, evs[0].Kind)
		}
		last := evs[len(evs)-1].Kind
		if last != obs.EvCellResolved && last != obs.EvCellAbandoned {
			t.Errorf("cell (%d,%d): last event %v, want terminal", row, attr, last)
		}
		for i, ev := range evs {
			if ev.Row != row || ev.Attr != attr {
				t.Errorf("cell (%d,%d): foreign event for (%d,%d) interleaved at %d",
					row, attr, ev.Row, ev.Attr, i)
			}
			if ev.Seq != i {
				t.Errorf("cell (%d,%d): event %d has Seq %d", row, attr, i, ev.Seq)
			}
		}
	}
}

// TestParallelImputeSampledTracer is the stress shape users actually
// run: a small ring with every-Nth sampling under concurrency. Traces
// may be evicted, but the retained ones must still be whole.
func TestParallelImputeSampledTracer(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	tr := obs.NewRingTracer(4, 2)
	im := New(sigma, WithTracer(tr))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := im.ImputeContext(context.Background(), rel); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if tr.Len() == 0 {
		t.Fatal("sampled tracer retained nothing")
	}
	for _, evs := range tr.Cells() {
		if !tr.Sample(evs[0].Row, evs[0].Attr) {
			t.Errorf("cell (%d,%d) traced but outside the sample", evs[0].Row, evs[0].Attr)
		}
		if evs[0].Kind != obs.EvCellStarted {
			t.Errorf("trace starts with %v", evs[0].Kind)
		}
		last := evs[len(evs)-1].Kind
		if last != obs.EvCellResolved && last != obs.EvCellAbandoned {
			t.Errorf("trace ends with %v", last)
		}
		for i, ev := range evs {
			if ev.Row != evs[0].Row || ev.Attr != evs[0].Attr || ev.Seq != i {
				t.Errorf("malformed event %d: %+v", i, ev)
			}
		}
	}
}

type statErr struct{ got int }

func (e *statErr) Error() string { return "concurrent run imputed unexpected cell count" }

// TestDonorPoolStatsParity is the regression test for the donor-pool
// accounting fix: with an empty pool, ImputeWithDonors must produce the
// same imputations, provenance lookups, and statistics as Impute.
func TestDonorPoolStatsParity(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())

	base, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := New(sigma).ImputeWithDonors(rel, nil)
	if err != nil {
		t.Fatal(err)
	}

	if pooled.Stats.Imputed != base.Stats.Imputed ||
		pooled.Stats.MissingCells != base.Stats.MissingCells ||
		pooled.Stats.FaultlessChecks != base.Stats.FaultlessChecks ||
		pooled.Stats.CandidatesTried != base.Stats.CandidatesTried ||
		pooled.Stats.VerifyRejections != base.Stats.VerifyRejections ||
		pooled.Stats.ClustersScanned != base.Stats.ClustersScanned {
		t.Errorf("donor-pool stats diverge:\n base   %+v\n pooled %+v", base.Stats, pooled.Stats)
	}
	if len(pooled.Stats.ImputedByAttr) != len(base.Stats.ImputedByAttr) {
		t.Fatalf("ImputedByAttr arity: %d vs %d", len(pooled.Stats.ImputedByAttr), len(base.Stats.ImputedByAttr))
	}
	for a := range base.Stats.ImputedByAttr {
		if pooled.Stats.ImputedByAttr[a] != base.Stats.ImputedByAttr[a] {
			t.Errorf("ImputedByAttr[%d] = %d, want %d", a, pooled.Stats.ImputedByAttr[a], base.Stats.ImputedByAttr[a])
		}
	}
	for _, imp := range base.Imputations {
		got, ok := pooled.ImputedValue(imp.Cell)
		if !ok {
			t.Errorf("cell %v imputed by Impute but not by ImputeWithDonors", imp.Cell)
			continue
		}
		if got.Donor != imp.Donor || got.DonorSource != -1 || !got.Value.Equal(imp.Value) {
			t.Errorf("cell %v: pooled %+v vs base %+v", imp.Cell, got, imp)
		}
	}
	if pooled.Stats.Phases.Total <= 0 || pooled.Stats.Phases.CandidateSearch <= 0 {
		t.Errorf("donor-pool phases not timed: %+v", pooled.Stats.Phases)
	}
}

// TestDonorSourcedStatsAttribution checks that imputations whose value
// came from the donor pool are counted and attributed exactly like
// target-sourced ones.
func TestDonorSourcedStatsAttribution(t *testing.T) {
	rel, err := dataset.ReadCSVString(`Name,City,Phone
Granita,Malibu,
Spago,W. Hollywood,310/652-4025
`)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := dataset.ReadCSVString(`Name,City,Phone
Granita,Malibu,310/456-0488
`)
	if err != nil {
		t.Fatal(err)
	}
	// φ4: Name(<=4) -> Phone(<=1) alone suffices and keeps the example
	// focused on the donor path: only the pool tuple shares the Name.
	sigma := rfd.Set{rfd.MustParse("Name(<=4) -> Phone(<=1)", rel.Schema())}
	m := obs.NewMetrics()
	im := New(sigma, WithRecorder(m))
	res, err := im.ImputeWithDonors(rel, []*dataset.Relation{donor})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Imputed != 1 {
		t.Fatalf("imputed = %d, want 1 (stats %+v)", res.Stats.Imputed, res.Stats)
	}
	phone := rel.Schema().MustIndex("Phone")
	imp, ok := res.ImputedValue(dataset.Cell{Row: 0, Attr: phone})
	if !ok {
		t.Fatal("donor-sourced imputation not retrievable via ImputedValue")
	}
	if imp.DonorSource != 0 || imp.Donor != 0 {
		t.Errorf("provenance = source %d row %d, want donor pool 0 row 0", imp.DonorSource, imp.Donor)
	}
	if res.Stats.ImputedByAttr[phone] != 1 {
		t.Errorf("ImputedByAttr[Phone] = %d, want 1", res.Stats.ImputedByAttr[phone])
	}
	if got := m.Counter(obs.CtrImputations); got != 1 {
		t.Errorf("recorder imputations = %d, want 1", got)
	}
	// The donor tuple itself must count toward the scan volume.
	if res.Stats.DonorsScanned < 2 {
		t.Errorf("DonorsScanned = %d, want >= 2 (target peer + pool tuple)", res.Stats.DonorsScanned)
	}
}
