package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rfd"
)

// literalKeys is Definition 3.4 by the pair loop over the view: dep is
// a key iff no pair of a target row i and a later flat row j satisfies
// its LHS.
func literalKeys(v *engine.View, sigma rfd.Set) []bool {
	keys := make([]bool, len(sigma))
	for s, dep := range sigma {
		keys[s] = true
		for i := 0; i < v.TargetLen() && keys[s]; i++ {
			for j := i + 1; j < v.Len(); j++ {
				if v.MatchesLHS(dep, i, j) {
					keys[s] = false
					break
				}
			}
		}
	}
	return keys
}

// TestKeyTrackerMatchesPairLoop: the column-pass tracker's key status
// equals the literal pair loop after construction and after every
// imputation (afterImpute), on compiled views and on Shared.Extend views
// with a 1-3-row request. Σ carries NaN, +Inf and 1e19 thresholds now
// and then (the per-pair fallback), and some instances span several
// growing blocks.
func TestKeyTrackerMatchesPairLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	flips, literal, big := 0, 0, 0
	for trial := 0; trial < 800; trial++ {
		rel := randomMixedInstance(rng)
		if trial%5 == 0 {
			for n := 60 + rng.Intn(400); rel.Len() < n; {
				rel.MustAppend(randomMixedTuple(rng, rel.Schema()))
			}
			big++
		}
		sigma := randomSigmaLHS(rng, rel.Schema().Len())
		var v *engine.View
		if trial%2 == 0 {
			v = engine.Compile(rel.Clone())
		} else {
			req := dataset.NewRelation(rel.Schema())
			for k := 1 + rng.Intn(3); k > 0; k-- {
				req.MustAppend(randomMixedTuple(rng, rel.Schema()))
			}
			v = engine.Precompile(rel).Extend(req)
		}
		if !exactLHS(sigma) {
			literal++
		}
		kt := newKeyTracker(context.Background(), v.Matcher(), sigma)
		check := func(when string) {
			t.Helper()
			want := literalKeys(v, sigma)
			keys := 0
			for s := range sigma {
				if kt.isKey[s] != want[s] {
					t.Fatalf("trial %d %s: rule %d (%s) key=%v, pair loop %v",
						trial, when, s, sigma[s].Format(rel.Schema()), kt.isKey[s], want[s])
				}
				if want[s] {
					keys++
				}
			}
			if kt.keys != keys {
				t.Fatalf("trial %d %s: key count %d, pair loop %d", trial, when, kt.keys, keys)
			}
		}
		check("after construction")
		cells := v.Relation().MissingCells()
		rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		for _, cell := range cells[:min(len(cells), 12)] {
			donor := rng.Intn(v.Len())
			if donor == cell.Row || v.IsNull(donor, cell.Attr) {
				continue
			}
			v.Set(cell.Row, cell.Attr, v.Value(donor, cell.Attr))
			before := kt.keys
			kt.afterImpute(cell.Row, cell.Attr)
			flips += before - kt.keys
			check("after imputing a cell")
		}
		if trial%2 == 0 {
			// Stream arrivals: the pairs a new row introduces.
			for k := 1 + rng.Intn(2); k > 0; k-- {
				if err := v.Append(randomMixedTuple(rng, rel.Schema())); err != nil {
					t.Fatal(err)
				}
				kt.absorbRow(v.Len() - 1)
				check("after an arrival")
			}
		}
	}
	if flips == 0 || literal == 0 || big == 0 {
		t.Fatalf("weak coverage: %d flips, %d trials with a non-exact threshold, %d multi-block", flips, literal, big)
	}
}

// exactLHS reports whether every LHS threshold of Σ is engine.Exact.
func exactLHS(sigma rfd.Set) bool {
	for _, dep := range sigma {
		for _, c := range dep.LHS {
			if !engine.Exact(c.Threshold) {
				return false
			}
		}
	}
	return true
}

// TestKeyTrackerBlockEdges plants the only pair that frees a key-RFDc
// at and around the edges of the tracker's growing blocks (64, 128,
// 256 rows), for the initial scan and for afterImpute.
func TestKeyTrackerBlockEdges(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "A", Kind: dataset.KindInt},
		dataset.Attribute{Name: "B", Kind: dataset.KindInt},
	)
	sigma := rfd.Set{rfd.MustParse("A(<=0) -> B(<=0)", schema)}
	distinct := func(n int) *dataset.Relation {
		rel := dataset.NewRelation(schema)
		for i := 0; i < n; i++ {
			rel.MustAppend(dataset.Tuple{dataset.NewInt(int64(10 * i)), dataset.NewInt(int64(i))})
		}
		return rel
	}
	for _, q := range []int{0, 5} {
		for _, off := range []int{1, 63, 64, 65, 191, 192, 193, 447, 448, 449} {
			// Initial scan: row q's pass starts at q+1.
			rel := distinct(600)
			rel.Set(q+off, 0, rel.Get(q, 0))
			kt := newKeyTracker(context.Background(), engine.Compile(rel).Matcher(), sigma)
			if kt.isKey[0] {
				t.Errorf("q %d: twin at q+%d not seen by the initial scan", q, off)
			}
			// afterImpute: the imputed row's pass starts at row 0.
			rel = distinct(600)
			rel.Set(q, 0, dataset.Null)
			v := engine.Compile(rel)
			kt = newKeyTracker(context.Background(), v.Matcher(), sigma)
			if !kt.isKey[0] {
				t.Fatalf("q %d: key lost before the imputation", q)
			}
			v.Set(q, 0, v.Value(off, 0))
			kt.afterImpute(q, 0)
			if kt.isKey[0] != (off == q) {
				t.Errorf("q %d: twin at row %d not seen after imputing", q, off)
			}
		}
	}
}
