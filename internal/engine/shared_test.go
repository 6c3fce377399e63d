package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestExtendParity checks that a two-tier view built from a precompiled
// base answers exactly like a from-scratch CompileWithDonors view over
// the same (target, base) pair — same distances, same Within verdicts,
// same null map — across every comparison class.
func TestExtendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomMixedRelation(rng, 40)
	target := randomMixedRelation(rng, 12)

	shared := Precompile(base)
	tiered := shared.Extend(target)
	flat := CompileWithDonors(target, []*dataset.Relation{base})

	if tiered.Len() != flat.Len() || tiered.TargetLen() != flat.TargetLen() {
		t.Fatalf("shape mismatch: tiered (%d,%d) vs flat (%d,%d)",
			tiered.Len(), tiered.TargetLen(), flat.Len(), flat.TargetLen())
	}
	n, m := flat.Len(), flat.Arity()
	for a := 0; a < m; a++ {
		for i := 0; i < n; i++ {
			if tiered.IsNull(i, a) != flat.IsNull(i, a) {
				t.Fatalf("IsNull(%d,%d): tiered %v flat %v", i, a, tiered.IsNull(i, a), flat.IsNull(i, a))
			}
			for j := i + 1; j < n; j++ {
				dt, df := tiered.Distance(a, i, j), flat.Distance(a, i, j)
				if !sameDist(dt, df) {
					t.Fatalf("Distance(%d,%d,%d): tiered %v flat %v", a, i, j, dt, df)
				}
				for _, max := range []float64{-1, 0, 0.5, 1, 2, 100} {
					if wt, wf := tiered.Within(a, i, j, max), flat.Within(a, i, j, max); wt != wf {
						t.Fatalf("Within(%d,%d,%d,%v): tiered %v flat %v", a, i, j, max, wt, wf)
					}
				}
			}
		}
	}
}

// TestExtendSetIsolated checks that writes to one extended view are
// invisible to a sibling view and to the base.
func TestExtendSetIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := randomMixedRelation(rng, 20)
	shared := Precompile(base)

	t1 := randomMixedRelation(rng, 4)
	t2 := randomMixedRelation(rng, 4)
	v1, v2 := shared.Extend(t1), shared.Extend(t2)

	v1.Set(0, 0, dataset.NewString("only-in-v1"))
	if got := v1.Value(0, 0).Str(); got != "only-in-v1" {
		t.Fatalf("v1 write not visible: %q", got)
	}
	if got := v2.Value(0, 0); got.Kind() == dataset.KindString && got.Str() == "only-in-v1" {
		t.Fatal("v1 write leaked into v2")
	}
	if got := shared.Relation().Get(0, 0); got.Kind() == dataset.KindString && got.Str() == "only-in-v1" {
		t.Fatal("v1 write leaked into the base relation")
	}
}

// TestFrozenViewRejectsWrites checks the base view's immutability
// contract: Set panics, Append errors.
func TestFrozenViewRejectsWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shared := Precompile(randomMixedRelation(rng, 8))
	fv := shared.View()
	if err := fv.Append(make(dataset.Tuple, fv.Arity())); err == nil {
		t.Fatal("Append on a frozen view should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set on a frozen view should panic")
		}
	}()
	fv.Set(0, 0, dataset.Null)
}

// TestExtendConcurrent exercises concurrent extended views reading
// through the shared tier while interning novel local strings — the
// serve-mode access pattern, run under -race.
func TestExtendConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := randomMixedRelation(rng, 25)
	shared := Precompile(base)

	targets := make([]*dataset.Relation, 8)
	for k := range targets {
		targets[k] = randomMixedRelation(rand.New(rand.NewSource(int64(100+k))), 6)
	}
	var wg sync.WaitGroup
	for k := range targets {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v := shared.Extend(targets[k])
			for a := 0; a < v.Arity(); a++ {
				for i := 0; i < v.Len(); i++ {
					for j := i + 1; j < v.Len(); j++ {
						v.Distance(a, i, j)
					}
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestCanceledError checks the sentinel contract: ErrCanceled and the
// context cause are both observable through errors.Is.
func TestCanceledError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Canceled(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatal("want errors.Is(err, ErrCanceled)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("want errors.Is(err, context.Canceled)")
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 0)
	defer dcancel()
	<-dctx.Done()
	derr := Canceled(dctx)
	if !errors.Is(derr, ErrCanceled) || !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("deadline error misses a sentinel: %v", derr)
	}
}
