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

// TestEvolveCarriesCacheWhenIdsStable: without compaction, the memo is
// carried as the SAME instance — entries warmed under the old epoch
// answer under the new one, and the stats confirm nothing invalidated.
func TestEvolveCarriesCacheWhenIdsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := randomMixedRelation(rng, 30)
	shared := Precompile(base)

	// Warm the memo: every string pair in every string attribute.
	v := shared.View()
	for a := 0; a < v.Arity(); a++ {
		for i := 0; i < v.Len(); i++ {
			for j := i + 1; j < v.Len(); j++ {
				v.Distance(a, i, j)
			}
		}
	}
	_, missesBefore := shared.CacheStats()
	if missesBefore == 0 {
		t.Fatal("warm-up recorded no cache misses; the memo is not engaged")
	}

	next := mutateRelation(rng, base, 0, 6) // append + update only, no deletes
	evolved, st, err := shared.Evolve(next)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompactedAttrs != 0 || st.InvalidatedCacheShards != 0 {
		t.Fatalf("id-stable evolve reported compaction: %+v", st)
	}
	if evolved.cache != shared.cache {
		t.Fatal("id-stable evolve copied the cache instead of carrying the instance")
	}
	// Replaying the shared-prefix distances through the evolved view
	// must be all hits: same ids, same memo.
	hitsBefore, missesBefore := evolved.CacheStats()
	ev := evolved.View()
	for a := 0; a < ev.Arity(); a++ {
		for i := 0; i < base.Len(); i++ {
			for j := i + 1; j < base.Len(); j++ {
				if base.Row(i)[a].Equal(next.Row(i)[a]) && base.Row(j)[a].Equal(next.Row(j)[a]) {
					ev.Distance(a, i, j)
				}
			}
		}
	}
	hitsAfter, missesAfter := evolved.CacheStats()
	if missesAfter != missesBefore {
		t.Fatalf("replaying warmed pairs missed the carried memo %d times", missesAfter-missesBefore)
	}
	if hitsAfter == hitsBefore {
		t.Fatal("replaying warmed pairs recorded no hits")
	}
}

// TestEvolveCompaction: when deletes leave an attribute's interning
// table mostly dead, Evolve re-interns it densely, hands the successor
// a cache without that attribute's entries, and — the property all of
// this serves — the evolved view still answers exactly like a fresh
// compile while the old epoch keeps its instance untouched.
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
	v := shared.View()
	for i := 0; i < v.Len(); i++ {
		for j := i + 1; j < v.Len(); j++ {
			v.Distance(0, i, j) // warm S entries so invalidation has something to drop
			v.Distance(1, i, j)
		}
	}

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
	if st.InvalidatedCacheShards == 0 {
		t.Fatal("compaction with a warmed cache invalidated no shards")
	}
	if evolved.cache == shared.cache {
		t.Fatal("compacting evolve shared the cache instance with its predecessor")
	}
	if got := len(evolved.interns[0].strs); got != 3 {
		t.Fatalf("compacted interner holds %d strings, want 3", got)
	}
	assertViewParity(t, evolved.View(), Precompile(next).View())
	assertViewParity(t, shared.View(), Precompile(base).View())
}

// TestWithoutAttrs: the copy-on-invalidate cache drops exactly the
// dropped attribute's entries — every other attribute's memo survives,
// even in shards the drop touched.
func TestWithoutAttrs(t *testing.T) {
	c := newDistCache()
	for i := int32(0); i < 64; i++ {
		c.put(0, i, i+1, i)
		c.put(1, i, i+1, i+100)
	}
	out, invalidated := c.withoutAttrs([]bool{true, false})
	if invalidated == 0 {
		t.Fatal("dropping a populated attribute invalidated no shards")
	}
	for i := int32(0); i < 64; i++ {
		if _, ok := out.get(0, i, i+1); ok {
			t.Fatalf("dropped attr 0 entry (%d,%d) survived", i, i+1)
		}
		d, ok := out.get(1, i, i+1)
		if !ok || d != i+100 {
			t.Fatalf("kept attr 1 entry (%d,%d): got (%d,%v), want (%d,true)", i, i+1, d, ok, i+100)
		}
	}
	// The source instance is untouched.
	for i := int32(0); i < 64; i++ {
		if _, ok := c.get(0, i, i+1); !ok {
			t.Fatalf("withoutAttrs mutated its source: attr 0 entry (%d,%d) gone", i, i+1)
		}
	}
}
