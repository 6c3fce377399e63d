package engine

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/distance"
	"repro/internal/rfd"
)

// TestMatcherViewParity: a Matcher answers every evaluation exactly as
// the View it wraps — the arena changes where scratch memory lives,
// never the result.
func TestMatcherViewParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		rel := randomMixedRelation(rng, 12)
		schema := rel.Schema()
		sigma := rfd.Set{
			rfd.MustParse("S(<=2) -> I(<=1)", schema),
			rfd.MustParse("I(<=1), F(<=0.5) -> S(<=3)", schema),
			rfd.MustParse("B(<=0), X(<=2) -> F(<=1)", schema),
		}
		v := Compile(rel)
		m := v.Matcher()
		for i := 0; i < rel.Len(); i++ {
			for j := 0; j < rel.Len(); j++ {
				for a := 0; a < v.Arity(); a++ {
					if got, want := m.Distance(a, i, j), v.Distance(a, i, j); !sameDist(got, want) {
						t.Fatalf("trial %d: Matcher.Distance(%d,%d,%d) = %v, view %v",
							trial, a, i, j, got, want)
					}
					for _, th := range []float64{0, 1, 2.5} {
						if got, want := m.Within(a, i, j, th), v.Within(a, i, j, th); got != want {
							t.Fatalf("trial %d: Matcher.Within(%d,%d,%d,%v) = %v, view %v",
								trial, a, i, j, th, got, want)
						}
					}
				}
				for _, dep := range sigma {
					if got, want := m.MatchesLHS(dep, i, j), v.MatchesLHS(dep, i, j); got != want {
						t.Fatalf("trial %d: Matcher.MatchesLHS mismatch at (%d,%d)", trial, i, j)
					}
					if got, want := m.Violates(dep, i, j), v.Violates(dep, i, j); got != want {
						t.Fatalf("trial %d: Matcher.Violates mismatch at (%d,%d)", trial, i, j)
					}
				}
				gd, gok := m.DistMin(sigma, i, j)
				wd, wok := v.DistMin(sigma, i, j)
				if gok != wok || (wok && gd != wd) {
					t.Fatalf("trial %d: Matcher.DistMin(%d,%d) = %v,%v, view %v,%v",
						trial, i, j, gd, gok, wd, wok)
				}
				gp, wp := m.PatternBetween(i, j), v.PatternBetween(i, j)
				for a := range gp {
					if !sameDist(gp[a], wp[a]) {
						t.Fatalf("trial %d: Matcher.PatternBetween(%d,%d)[%d] = %v, view %v",
							trial, i, j, a, gp[a], wp[a])
					}
				}
			}
		}
	}
}

// TestMatcherSteadyStateZeroAlloc: once its arena buffers are sized, a
// Matcher's evaluations allocate nothing — the arena absorbs all
// scratch state.
func TestMatcherSteadyStateZeroAlloc(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(12))
	rel := randomMixedRelation(rng, 16)
	v := Compile(rel)
	m := v.Matcher()
	p := distance.NewPattern(v.Arity())
	warm := func() {
		for i := 0; i < rel.Len(); i++ {
			for j := 0; j < rel.Len(); j++ {
				m.PatternInto(p, i, j)
				for a := 0; a < v.Arity(); a++ {
					m.Within(a, i, j, 1.5)
				}
			}
		}
	}
	warm() // size the arena buffers
	if avg := testing.AllocsPerRun(20, warm); avg != 0 {
		t.Errorf("steady-state Matcher sweep allocates %.1f times per run, want 0", avg)
	}
}

// TestViewKernelParity: the compiled view produces identical distances
// and predicates under the forced banded kernel and the Myers kernel —
// the engine-level face of the differential harness.
func TestViewKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel := randomMixedRelation(rng, 14)
	type snapshot struct {
		d []float64
		w []bool
	}
	run := func(k distance.Kernel) snapshot {
		prev := distance.SetKernel(k)
		defer distance.SetKernel(prev)
		v := Compile(rel)
		m := v.Matcher()
		var s snapshot
		for i := 0; i < rel.Len(); i++ {
			for j := 0; j < rel.Len(); j++ {
				for a := 0; a < v.Arity(); a++ {
					s.d = append(s.d, m.Distance(a, i, j))
					s.w = append(s.w, m.Within(a, i, j, 2))
				}
			}
		}
		return s
	}
	banded := run(distance.KernelBanded)
	myers := run(distance.KernelMyers)
	auto := run(distance.KernelAuto)
	for i := range banded.d {
		if !sameDist(banded.d[i], myers.d[i]) || !sameDist(banded.d[i], auto.d[i]) {
			t.Fatalf("distance %d: banded %v, myers %v, auto %v",
				i, banded.d[i], myers.d[i], auto.d[i])
		}
		if banded.w[i] != myers.w[i] || banded.w[i] != auto.w[i] {
			t.Fatalf("within %d: banded %v, myers %v, auto %v",
				i, banded.w[i], myers.w[i], auto.w[i])
		}
	}
}
