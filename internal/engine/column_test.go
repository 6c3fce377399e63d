package engine

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/distance"
	"repro/internal/rfd"
)

// columnViews returns a compiled view and a two-tier view (Shared.Extend
// with a 1-3 row request) over random mixed relations, so a column can
// start in one segment and end in the other.
func columnViews(rng *rand.Rand, n int) []*View {
	base := randomMixedRelation(rng, n)
	req := randomMixedRelation(rng, 1+rng.Intn(3))
	return []*View{Compile(base), Precompile(base).Extend(req)}
}

// TestColumnMatchesDistance: every cell of a capped column is Missing
// exactly where Distance is, Distance itself at or under the limit,
// +Inf above it; and for each exact threshold up to the limit, "≤ th"
// is Within.
func TestColumnMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		for _, v := range columnViews(rng, 1+rng.Intn(150)) {
			m := v.Matcher()
			col := make([]float64, v.Len())
			for q := 0; q < v.Len(); q += 1 + rng.Intn(7) {
				for a := 0; a < v.Arity(); a++ {
					limit := []float64{0, 0.5, 1, 2, 3.5, 9}[rng.Intn(6)]
					lo := rng.Intn(v.Len())
					seg := col[:lo+rng.Intn(v.Len()-lo+1)-lo]
					m.Column(seg, a, q, lo, limit)
					for k, got := range seg {
						j := lo + k
						d := v.Distance(a, q, j)
						switch {
						case distance.IsMissing(d):
							if !distance.IsMissing(got) {
								t.Fatalf("attr %d (%d,%d): column %v, Distance missing", a, q, j, got)
							}
						case d <= limit:
							if got != d {
								t.Fatalf("attr %d (%d,%d) limit %v: column %v, Distance %v", a, q, j, limit, got, d)
							}
						default:
							if !math.IsInf(got, 1) {
								t.Fatalf("attr %d (%d,%d) limit %v: column %v, Distance %v above", a, q, j, limit, got, d)
							}
						}
						for _, th := range []float64{0, 0.5, 1, 2, 3.5, 9} {
							if th <= limit && (got <= th) != v.Within(a, q, j, th) {
								t.Fatalf("attr %d (%d,%d) th %v: column %v disagrees with Within", a, q, j, th, got)
							}
						}
					}
				}
			}
		}
	}
}

// TestRowPassMatchesPairs: for random rules, every block bitset And
// returns is the per-pair MatchesLHS (and, with breach, Violates) over
// the block's rows, the query row excluded, for growing and fixed
// blocks alike.
func TestRowPassMatchesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ths := []float64{0, 0, 0.5, 1, 2, 3, 9}
	for trial := 0; trial < 40; trial++ {
		for _, v := range columnViews(rng, 1+rng.Intn(1500)) {
			var sigma rfd.Set
			for k := 1 + rng.Intn(6); k > 0; k-- {
				var lhs []rfd.Constraint
				rhs := rng.Intn(v.Arity())
				for _, a := range rng.Perm(v.Arity()) {
					if a != rhs && (len(lhs) == 0 || rng.Intn(3) == 0) {
						lhs = append(lhs, rfd.Constraint{Attr: a, Threshold: ths[rng.Intn(len(ths))]})
					}
				}
				sigma = append(sigma, rfd.MustNew(lhs, rfd.Constraint{Attr: rhs, Threshold: ths[rng.Intn(len(ths))]}))
			}
			m := v.Matcher()
			q := rng.Intn(v.Len())
			lo := rng.Intn(v.Len())
			hi := lo + rng.Intn(v.Len()-lo+1)
			p := m.Pass(sigma)
			for s, dep := range sigma {
				if !p.Rule(dep, -1, s%2 == 1, s) {
					t.Fatalf("exact rule refused: %v", dep)
				}
			}
			grow := trial%2 == 0
			start, size := lo, MaxBlock
			if grow {
				size = 64
			}
			seen := 0
			p.Scan(q, lo, hi, grow)
			for p.Next() {
				end := min(start+size, hi)
				if p.Lo() != start {
					t.Fatalf("block starts at %d, want %d", p.Lo(), start)
				}
				for h := 0; h < p.Rules(); h++ {
					set := p.And(h)
					dep := sigma[p.Tag(h)]
					for k := 0; k < len(set)*64; k++ {
						j := start + k
						want := j < end && j != q && m.MatchesLHS(dep, q, j)
						if h%2 == 1 {
							want = want && m.Violates(dep, q, j)
						}
						if Has(set, k) != want {
							t.Fatalf("rule %d row %d (q %d, block [%d,%d)): bit %v, pairs %v",
								h, j, q, start, end, Has(set, k), want)
						}
					}
				}
				seen += end - start
				start = end
				if grow {
					size = min(2*size, MaxBlock)
				}
			}
			if seen != hi-lo {
				t.Fatalf("blocks covered %d rows of [%d,%d)", seen, lo, hi)
			}
		}
	}
}

// TestRowPassRefusesInexact: a rule carrying NaN, +Inf or a bound past
// 2⁶³ is refused whole, so the caller keeps the per-pair loop.
func TestRowPassRefusesInexact(t *testing.T) {
	v := Compile(randomMixedRelation(rand.New(rand.NewSource(33)), 4))
	m := v.Matcher()
	for _, th := range []float64{math.NaN(), math.Inf(1), 1e19} {
		p := m.Pass(nil)
		lhs := rfd.MustNew([]rfd.Constraint{{Attr: 0, Threshold: 1}, {Attr: 1, Threshold: th}}, rfd.Constraint{Attr: 2, Threshold: 1})
		rhs := rfd.MustNew([]rfd.Constraint{{Attr: 0, Threshold: 1}}, rfd.Constraint{Attr: 2, Threshold: th})
		if p.Rule(lhs, -1, false, 0) || p.Rule(rhs, -1, true, 0) || p.Rules() != 0 {
			t.Fatalf("threshold %v accepted", th)
		}
		if !p.Rule(lhs, 1, false, 0) || !p.Rule(rhs, -1, false, 0) {
			t.Fatalf("threshold %v refused where it is not tested", th)
		}
	}
}

// TestColumnZeroAlloc: once a pass's buffers are sized, columns and
// passes allocate nothing.
func TestColumnZeroAlloc(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(34))
	v := Compile(randomMixedRelation(rng, 300))
	m := v.Matcher()
	schema := v.Relation().Schema()
	sigma := rfd.Set{
		rfd.MustParse("S(<=2) -> I(<=1)", schema),
		rfd.MustParse("I(<=1), F(<=0.5) -> S(<=3)", schema),
	}
	run := func() {
		p := m.Pass(sigma)
		for s, dep := range sigma {
			p.Rule(dep, -1, true, s)
		}
		p.Scan(7, 0, v.Len(), true)
		for p.Next() {
			for h := 0; h < p.Rules(); h++ {
				p.And(h)
			}
		}
	}
	run()
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Errorf("%.1f allocs per pass, want 0", n)
	}
}
