package renuver

import (
	"context"
	"fmt"
	"testing"
)

// TestMethodDatasetMatrix runs every imputation method in the repository
// against every synthetic dataset at a small size, checking the shared
// contract: no error, input untouched, shape preserved, only missing
// cells filled, metrics in range.
func TestMethodDatasetMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	for _, name := range DatasetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			rel, err := GenerateDataset(name, 60, 11)
			if err != nil {
				t.Fatal(err)
			}
			sigma, err := DiscoverRFDs(rel, DiscoveryOptions{MaxThreshold: 6, MaxPairs: 2000})
			if err != nil {
				t.Fatal(err)
			}
			dcs := DiscoverDCs(rel, DCDiscoveryOptions{MaxViolationRate: 0.02, MinEvidence: 1, MaxPairs: 2000})
			dirty, injected, err := Inject(rel, 0.06, 3)
			if err != nil {
				t.Fatal(err)
			}

			methods := buildAllMethods(t, sigma, dcs)
			for _, m := range methods {
				m := m
				t.Run(m.Name(), func(t *testing.T) {
					before := dirty.CountMissing()
					out, err := m.Impute(context.Background(), dirty)
					if err != nil {
						t.Fatal(err)
					}
					if dirty.CountMissing() != before {
						t.Fatal("method mutated its input")
					}
					if out.Len() != dirty.Len() || out.Schema().Len() != dirty.Schema().Len() {
						t.Fatal("method changed the shape")
					}
					for i := 0; i < dirty.Len(); i++ {
						for a := 0; a < dirty.Schema().Len(); a++ {
							if !dirty.Get(i, a).IsNull() && !dirty.Get(i, a).Equal(out.Get(i, a)) {
								t.Fatalf("observed cell (%d,%d) changed", i, a)
							}
						}
					}
					s := Score(out, injected, NewValidator())
					for label, v := range map[string]float64{
						"precision": s.Precision, "recall": s.Recall, "f1": s.F1,
					} {
						if v < 0 || v > 1 {
							t.Errorf("%s = %v out of range", label, v)
						}
					}
				})
			}
		})
	}
}

func buildAllMethods(t *testing.T, sigma RFDSet, dcs []*DC) []Method {
	t.Helper()
	kn, err := NewKNN(KNNOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := NewDerand(sigma, DerandOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := NewDerand(sigma, DerandOptions{Seed: 1, Mode: 1}) // Randomized
	if err != nil {
		t.Fatal(err)
	}
	hc, err := NewHoloclean(HolocleanOptions{DCs: dcs, Seed: 1, TrainSamples: 40})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLocalRegression(RegressionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewDerandExact(sigma, DerandOptions{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	return []Method{
		AsMethod(NewImputer(sigma)),
		AsMethod(NewImputer(sigma, WithVerifyMode(VerifyBothSides))),
		kn, dr, rnd, hc, NewMeanMode(), lr, ex,
	}
}

// TestStreamVsBatchMatrix: for every dataset, streaming all tuples with
// retry ends with no more missing cells than the batch run.
func TestStreamVsBatchMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix sweep in -short mode")
	}
	for _, name := range DatasetNames() {
		rel, err := GenerateDataset(name, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		sigma, err := DiscoverRFDs(rel, DiscoveryOptions{MaxThreshold: 6, MaxPairs: 1000})
		if err != nil {
			t.Fatal(err)
		}
		dirty, _, err := Inject(rel, 0.05, 9)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Impute(dirty, sigma)
		if err != nil {
			t.Fatal(err)
		}
		stream := NewImputer(sigma).NewStream(dirty.Head(0))
		for i := 0; i < dirty.Len(); i++ {
			if _, err := stream.Append(dirty.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		stream.RetryMissing()
		if got, want := stream.Relation().CountMissing(), batch.Relation.CountMissing(); got > want {
			t.Errorf("%s: stream left %d missing, batch %d", name, got, want)
		}
	}
}

// TestProvenanceAuditMatrix: every recorded imputation must point at a
// donor that actually carries the imputed value (in the final instance).
func TestProvenanceAuditMatrix(t *testing.T) {
	for _, name := range []string{"restaurant", "physician"} {
		rel, err := GenerateDataset(name, 80, 13)
		if err != nil {
			t.Fatal(err)
		}
		sigma, err := DiscoverRFDs(rel, DiscoveryOptions{MaxThreshold: 9, MaxPairs: 3000})
		if err != nil {
			t.Fatal(err)
		}
		dirty, _, err := Inject(rel, 0.05, 17)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Impute(dirty, sigma)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range res.Imputations {
			donorVal := res.Relation.Get(imp.Donor, imp.Cell.Attr)
			if !donorVal.Equal(imp.Value) {
				t.Errorf("%s: imputation %+v: donor row carries %v", name, imp, donorVal)
			}
			if imp.Attempt < 1 || imp.Distance < 0 {
				t.Errorf("%s: malformed provenance %+v", name, imp)
			}
		}
		_ = fmt.Sprintf("%v", res.Stats) // Stats must be printable
	}
}
