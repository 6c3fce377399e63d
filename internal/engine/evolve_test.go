package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// appendAnyKind appends a tuple that may carry cross-kind cells in the
// last attribute (randomMixedRelation's X column): Append validates
// kinds, so the X value rides in as Null and is restored via Set, the
// same bypass the generator uses.
func appendAnyKind(rel *dataset.Relation, t dataset.Tuple) {
	c := t.Clone()
	x := len(c) - 1
	orig := c[x]
	c[x] = dataset.Null
	rel.MustAppend(c)
	rel.Set(rel.Len()-1, x, orig)
}

// mutateRelation builds Evolve's `next` from a base: drop some rows,
// rewrite some surviving cells (drawing values from the base so both
// shared and novel strings occur), append fresh rows.
func mutateRelation(rng *rand.Rand, base *dataset.Relation, drop, appendN int) *dataset.Relation {
	next := dataset.NewRelation(base.Schema())
	for i := 0; i < base.Len(); i++ {
		if i < drop {
			continue
		}
		appendAnyKind(next, base.Row(i))
	}
	for i := 0; i < next.Len(); i += 3 {
		src := base.Row(rng.Intn(base.Len()))
		a := rng.Intn(base.Schema().Len() - 1) // stay off the cross-kind X column
		next.Set(i, a, src[a])
	}
	extra := randomMixedRelation(rng, appendN)
	for i := 0; i < extra.Len(); i++ {
		appendAnyKind(next, extra.Row(i))
	}
	return next
}

// assertViewParity checks two views answer identically on every
// comparison class — nulls, distances, Within at several radii.
func assertViewParity(t *testing.T, got, want *View) {
	t.Helper()
	if got.Len() != want.Len() || got.Arity() != want.Arity() {
		t.Fatalf("shape mismatch: got (%d,%d) want (%d,%d)", got.Len(), got.Arity(), want.Len(), want.Arity())
	}
	n, m := want.Len(), want.Arity()
	for a := 0; a < m; a++ {
		for i := 0; i < n; i++ {
			if got.IsNull(i, a) != want.IsNull(i, a) {
				t.Fatalf("IsNull(%d,%d): got %v want %v", i, a, got.IsNull(i, a), want.IsNull(i, a))
			}
			if gv, wv := got.Value(i, a), want.Value(i, a); !gv.Equal(wv) {
				t.Fatalf("Value(%d,%d): got %v want %v", i, a, gv, wv)
			}
			for j := i + 1; j < n; j++ {
				dg, dw := got.Distance(a, i, j), want.Distance(a, i, j)
				if !sameDist(dg, dw) {
					t.Fatalf("Distance(%d,%d,%d): got %v want %v", a, i, j, dg, dw)
				}
				for _, max := range []float64{0, 1, 2.5} {
					if wg, ww := got.Within(a, i, j, max), want.Within(a, i, j, max); wg != ww {
						t.Fatalf("Within(%d,%d,%d,%v): got %v want %v", a, i, j, max, wg, ww)
					}
				}
			}
		}
	}
}

// TestEvolveParity: an evolved Shared must be observationally identical
// to a from-scratch Precompile of the successor relation, across
// delete/update/append mixes and chained evolutions.
func TestEvolveParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		base := randomMixedRelation(rng, 24+rng.Intn(20))
		shared := Precompile(base)
		next := mutateRelation(rng, base, rng.Intn(6), 4+rng.Intn(6))

		evolved, _, err := shared.Evolve(next)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if evolved.Len() != next.Len() {
			t.Fatalf("trial %d: evolved len %d, next has %d", trial, evolved.Len(), next.Len())
		}
		assertViewParity(t, evolved.View(), Precompile(next).View())

		// Chain a second evolution off the first: id stability must
		// compose across epochs.
		next2 := mutateRelation(rng, next, rng.Intn(4), 3)
		evolved2, _, err := evolved.Evolve(next2)
		if err != nil {
			t.Fatalf("trial %d: second evolve: %v", trial, err)
		}
		assertViewParity(t, evolved2.View(), Precompile(next2).View())
		// The predecessor epochs must be untouched by their successors.
		assertViewParity(t, evolved.View(), Precompile(next).View())
		assertViewParity(t, shared.View(), Precompile(base).View())
	}
}

// TestEvolveArityMismatch: a successor with different arity is refused.
func TestEvolveArityMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shared := Precompile(randomMixedRelation(rng, 8))
	narrow := dataset.NewRelation(dataset.NewSchema(
		dataset.Attribute{Name: "S", Kind: dataset.KindString},
	))
	if _, _, err := shared.Evolve(narrow); err == nil {
		t.Fatal("Evolve accepted an arity mismatch")
	}
}

// TestEvolveKeepsIdsStable: without compaction, every string the two
// instances share keeps its interned id and its decoded runes (the
// successor re-decodes nothing), and only novel strings extend the id
// space.
func TestEvolveKeepsIdsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randomMixedRelation(rng, 30)
	shared := Precompile(base)

	next := mutateRelation(rng, base, 0, 6) // append + update only, no deletes
	evolved, st, err := shared.Evolve(next)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompactedAttrs != 0 {
		t.Fatalf("id-stable evolve reported compaction: %+v", st)
	}
	checked := 0
	for a := range shared.interns {
		old, in := shared.interns[a], evolved.interns[a]
		if len(in.strs) < len(old.strs) {
			t.Fatalf("attr %d: evolved interner holds %d strings, base %d", a, len(in.strs), len(old.strs))
		}
		for s, id := range old.ids {
			if got, ok := in.ids[s]; !ok || got != id {
				t.Fatalf("attr %d: %q has id %d (present %v) after evolve, want %d", a, s, got, ok, id)
			}
			if r := old.runes[id]; len(r) > 0 && &in.runes[id][0] != &r[0] {
				t.Fatalf("attr %d: %q was re-decoded by evolve", a, s)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("base interned no strings; the check is vacuous")
	}
	assertViewParity(t, evolved.View(), Precompile(next).View())
}

// TestEvolveCompaction: when deletes leave an attribute's interning
// table mostly dead, Evolve re-interns it densely, and — the property
// all of this serves — the evolved view still answers exactly like a
// fresh compile while the old epoch stays untouched.
func TestEvolveCompaction(t *testing.T) {
	defer func(minD, num, den int) {
		compactMinDistinct, compactDeadNum, compactDeadDen = minD, num, den
	}(compactMinDistinct, compactDeadNum, compactDeadDen)
	compactMinDistinct = 4

	schema := dataset.NewSchema(
		dataset.Attribute{Name: "S", Kind: dataset.KindString},
		dataset.Attribute{Name: "K", Kind: dataset.KindString},
	)
	base := dataset.NewRelation(schema)
	for i := 0; i < 24; i++ {
		base.MustAppend(dataset.Tuple{
			dataset.NewString(fmt.Sprintf("unique-%02d", i)), // 24 distinct, mostly dying
			dataset.NewString("keep"),                        // 1 distinct, always live
		})
	}
	shared := Precompile(base)

	// Keep 3 of 24 rows: S drops to 3 live of 24 distinct (dead 21/24 >
	// 1/2), K stays fully live.
	next := dataset.NewRelation(schema)
	for i := 0; i < 3; i++ {
		next.MustAppend(base.Row(i * 7).Clone())
	}
	evolved, st, err := shared.Evolve(next)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompactedAttrs != 1 {
		t.Fatalf("CompactedAttrs = %d, want 1 (S only)", st.CompactedAttrs)
	}
	if got := len(evolved.interns[0].strs); got != 3 {
		t.Fatalf("compacted interner holds %d strings, want 3", got)
	}
	assertViewParity(t, evolved.View(), Precompile(next).View())
	assertViewParity(t, shared.View(), Precompile(base).View())
}
