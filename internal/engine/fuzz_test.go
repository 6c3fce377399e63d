package engine

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
)

// FuzzViewDistance drives the string-distance paths with arbitrary
// values under concurrent readers: every View.Distance must equal a
// fresh distance.Values computation, in both orientations, and every
// View.Within must agree with ValuesWithin. It checks a single-tier
// compiled view and the two-tier Precompile(…).Extend(…) view serving
// reads through, so pairs within the base, within the request and across
// the tiers are all covered. Run under -race (the race target includes
// this package) it also checks that concurrent reads share nothing they
// write.
func FuzzViewDistance(f *testing.F) {
	f.Add("granita", "granite", "fenix", 1.0)
	f.Add("", "a", "ab", 0.0)
	f.Add("höllywood", "hollywood", "hollywood", 2.5)
	f.Add("310/456-0488", "310-392-9025", "213/848-6677", 3.0)
	f.Fuzz(func(t *testing.T, a, b, c string, th float64) {
		schema := dataset.NewSchema(
			dataset.Attribute{Name: "S", Kind: dataset.KindString},
			dataset.Attribute{Name: "T", Kind: dataset.KindString},
		)
		rel := dataset.NewRelation(schema)
		base := dataset.NewRelation(schema)
		for i, s := range []string{a, b, c, a} {
			tu := dataset.Tuple{dataset.NewString(s), dataset.NewString(s + b)}
			rel.MustAppend(tu)
			if i < 2 {
				base.MustAppend(tu)
			}
		}
		// The extended view's flat rows are the request (c, a) followed by
		// the base (a, b): a shared string interns in the base tier, a
		// novel one in the request tier.
		target := dataset.NewRelation(schema)
		target.MustAppend(rel.Row(2))
		target.MustAppend(rel.Row(3))
		ext := Precompile(base).Extend(target)
		extRows := []dataset.Tuple{rel.Row(2), rel.Row(3), rel.Row(0), rel.Row(1)}

		for _, tc := range []struct {
			v    *View
			rows []dataset.Tuple
		}{
			{Compile(rel), []dataset.Tuple{rel.Row(0), rel.Row(1), rel.Row(2), rel.Row(3)}},
			{ext, extRows},
		} {
			if msg := concurrentDistanceCheck(tc.v, tc.rows, th); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// concurrentDistanceCheck runs four readers over every ordered pair and
// attribute of v, comparing against the scalar reference on rows (in
// flat order). It returns the first divergence, or "".
func concurrentDistanceCheck(v *View, rows []dataset.Tuple, th float64) string {
	var wg sync.WaitGroup
	fail := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				for i := range rows {
					for j := range rows {
						for attr := 0; attr < v.Arity(); attr++ {
							x, y := rows[i][attr], rows[j][attr]
							if v.Distance(attr, i, j) != distance.Values(x, y) {
								select {
								case fail <- "View.Distance diverged from distance.Values":
								default:
								}
								return
							}
							if v.Within(attr, i, j, th) != distance.ValuesWithin(x, y, th) {
								select {
								case fail <- "View.Within diverged from ValuesWithin":
								default:
								}
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-fail:
		return msg
	default:
		return ""
	}
}
