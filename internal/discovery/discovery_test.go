package discovery

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rfd"
)

func table2(t testing.TB) *dataset.Relation {
	t.Helper()
	rel, err := dataset.ReadCSVString(`Name,City,Phone,Type,Class
Granita,Malibu,310/456-0488,Californian,6
Chinois Main,LA,310-392-9025,French,5
Citrus,Los Angeles,213/857-0034,Californian,6
Citrus,Los Angeles,,Californian,6
Fenix,Hollywood,213/848-6677,,5
Fenix Argyle,,213/848-6677,French (new),5
C. Main,Los Angeles,,French,5
`)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestDiscoveredRFDsHold(t *testing.T) {
	rel := table2(t)
	sigma, err := Discover(rel, Config{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) == 0 {
		t.Fatal("no RFDcs discovered")
	}
	for _, dep := range sigma {
		if !dep.HoldsOn(rel) {
			t.Errorf("discovered RFD %s does not hold", dep.Format(rel.Schema()))
		}
	}
}

func TestDiscoveredRFDsAreNonKey(t *testing.T) {
	rel := table2(t)
	sigma, err := Discover(rel, Config{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range sigma {
		if dep.IsKey(rel) {
			t.Errorf("discovered RFD %s is key (violates MinSupport)", dep.Format(rel.Schema()))
		}
	}
}

func TestDiscoveryRespectsMaxThreshold(t *testing.T) {
	rel := table2(t)
	const limit = 4.0
	sigma, err := Discover(rel, Config{MaxThreshold: limit})
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range sigma {
		if dep.RHSThreshold() > limit {
			t.Errorf("%s exceeds RHS limit", dep.Format(rel.Schema()))
		}
		for _, c := range dep.LHS {
			if c.Threshold > limit {
				t.Errorf("%s exceeds LHS limit", dep.Format(rel.Schema()))
			}
		}
	}
}

func TestDiscoveryRespectsMaxLHS(t *testing.T) {
	rel := table2(t)
	for _, maxLHS := range []int{1, 2, 3} {
		sigma, err := Discover(rel, Config{MaxThreshold: 6, MaxLHS: maxLHS})
		if err != nil {
			t.Fatal(err)
		}
		for _, dep := range sigma {
			if len(dep.LHS) > maxLHS {
				t.Errorf("MaxLHS=%d: %s too wide", maxLHS, dep.Format(rel.Schema()))
			}
		}
	}
}

func TestDiscoveryGrowsWithThreshold(t *testing.T) {
	// Table 3's pattern: higher threshold limits yield (weakly) more RFDcs
	// before pruning.
	rel := table2(t)
	prev := -1
	for _, th := range []float64{0, 3, 6, 9} {
		sigma, err := Discover(rel, Config{MaxThreshold: th, KeepDominated: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(sigma) < prev {
			t.Errorf("threshold %v produced %d RFDs, fewer than previous %d", th, len(sigma), prev)
		}
		prev = len(sigma)
	}
}

func TestDiscoveryOnExactFD(t *testing.T) {
	// B is functionally determined by A with equality; discovery at
	// threshold 0 must find A(<=0) -> B(<=0).
	rel, err := dataset.ReadCSVString(`A,B
x,1
x,1
y,2
y,2
z,3
`)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := Discover(rel, Config{MaxThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := rfd.MustParse("A(<=0) -> B(<=0)", rel.Schema())
	if !sigma.Contains(want) {
		var got []string
		for _, dep := range sigma {
			got = append(got, dep.Format(rel.Schema()))
		}
		t.Errorf("discovered %v, want to contain %s", got, want.Format(rel.Schema()))
	}
}

func TestDiscoveryRejectsNonFD(t *testing.T) {
	// A does not determine B (x maps to both 1 and 9): no A->B RFD can
	// exist with LHS threshold >= 0 and RHS threshold < 8.
	rel, err := dataset.ReadCSVString(`A,B
x,1
x,9
y,5
y,5
`)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := Discover(rel, Config{MaxThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := rel.Schema().MustIndex("B")
	for _, dep := range sigma.ForRHS(b) {
		if len(dep.LHS) == 1 && dep.LHS[0].Attr == 0 {
			t.Errorf("impossible RFD discovered: %s", dep.Format(rel.Schema()))
		}
	}
}

func TestDominancePruning(t *testing.T) {
	rel := table2(t)
	pruned, err := Discover(rel, Config{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Discover(rel, Config{MaxThreshold: 6, KeepDominated: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) > len(raw) {
		t.Errorf("pruned %d > raw %d", len(pruned), len(raw))
	}
	if len(pruned) == len(raw) {
		t.Log("warning: pruning removed nothing (possible but unusual)")
	}
	// Every pruned-set member must appear in the raw set.
	for _, dep := range pruned {
		if !raw.Contains(dep) {
			t.Errorf("pruned set invented %s", dep.Format(rel.Schema()))
		}
	}
}

func TestDiscoveryDeterminism(t *testing.T) {
	rel := table2(t)
	a, err := Discover(rel, Config{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Discover(rel, Config{MaxThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("RFD %d differs between runs", i)
		}
	}
}

func TestDiscoverySampling(t *testing.T) {
	rel := table2(t)
	sigma, err := Discover(rel, Config{MaxThreshold: 6, MaxPairs: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Sampled discovery is approximate; it must still emit structurally
	// valid RFDs within the limits.
	for _, dep := range sigma {
		if dep.RHSThreshold() > 6 {
			t.Errorf("sampled discovery exceeded limit: %s", dep.Format(rel.Schema()))
		}
	}
	// Same seed, same result.
	again, err := Discover(rel, Config{MaxThreshold: 6, MaxPairs: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) != len(again) {
		t.Errorf("sampling not deterministic: %d vs %d", len(sigma), len(again))
	}
}

func TestDiscoveryEdgeCases(t *testing.T) {
	// Single attribute: no possible LHS.
	one, err := dataset.ReadCSVString("A\nx\ny\n")
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := Discover(one, Config{MaxThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) != 0 {
		t.Errorf("single-attribute relation produced %d RFDs", len(sigma))
	}
	// Single tuple: no pairs.
	single, err := dataset.ReadCSVString("A,B\nx,1\n")
	if err != nil {
		t.Fatal(err)
	}
	sigma, err = Discover(single, Config{MaxThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) != 0 {
		t.Errorf("single-tuple relation produced %d RFDs", len(sigma))
	}
	// Bad config.
	if _, err := Discover(one, Config{MaxThreshold: -1}); err == nil {
		t.Error("negative MaxThreshold accepted")
	}
	if _, err := Discover(one, Config{MaxThreshold: 1, MaxLHS: -2}); err == nil {
		t.Error("negative MaxLHS accepted")
	}
}

// TestDiscoveryRejectsBadLimits: limits that would crash discovery or
// make it silently do nothing are errors, and the caller's RHSGrid is
// left as it was passed. +Inf is checked only by cmd/renuver's
// TestInfiniteThresholdExits, whose child runs under an address-space
// cap: were the check lost, its β grid would grow until memory runs out.
func TestDiscoveryRejectsBadLimits(t *testing.T) {
	rel := table2(t)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"threshold-neg-inf", Config{MaxThreshold: math.Inf(-1)}, "MaxThreshold"},
		{"threshold-nan", Config{MaxThreshold: math.NaN()}, "MaxThreshold"},
		{"threshold-negative", Config{MaxThreshold: -1}, "MaxThreshold"},
		{"attr-limits-short", Config{MaxThreshold: 3, AttrLimits: []float64{1}}, "AttrLimits"},
		{"attr-limits-long", Config{MaxThreshold: 3, AttrLimits: make([]float64, 6)}, "AttrLimits"},
		// Past the default grid's bound: refused in normalize, before the
		// grid (one entry per integer up to the limit) is built.
		{"default-grid-limit+1", Config{MaxThreshold: MaxDefaultGridThreshold + 1}, "RHSGrid"},
		{"default-grid-1e7", Config{MaxThreshold: 1e7}, "RHSGrid"},
		{"default-grid-1e300", Config{MaxThreshold: 1e300}, "RHSGrid"},
	}
	for _, c := range cases {
		sigma, err := Discover(rel, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %d rules, err %v; want an error naming %s", c.name, len(sigma), err, c.want)
		}
	}

	// The bound itself is accepted with its full default grid, and an
	// explicit grid lifts the bound.
	atLimit := Config{MaxThreshold: MaxDefaultGridThreshold}
	if err := atLimit.normalize(); err != nil || len(atLimit.RHSGrid) != MaxDefaultGridThreshold+1 {
		t.Errorf("MaxThreshold at the bound: err %v, grid of %d", err, len(atLimit.RHSGrid))
	}
	if _, err := Discover(rel, Config{MaxThreshold: 1e7, RHSGrid: []float64{0, 1, 2}}); err != nil {
		t.Errorf("MaxThreshold 1e7 with an explicit grid: %v", err)
	}
	// A refusal builds no grid: the error value costs a few allocations,
	// while appending even the bound's grid takes about 20 growths.
	for _, th := range []float64{MaxDefaultGridThreshold + 1, 1e7, 1e300} {
		cfg := Config{MaxThreshold: th}
		allocs := testing.AllocsPerRun(1, func() { _ = cfg.normalize() })
		if cfg.RHSGrid != nil || allocs > 8 {
			t.Errorf("refusing MaxThreshold %v built a grid of %d (%v allocs)", th, len(cfg.RHSGrid), allocs)
		}
	}

	grid := []float64{3, 0, 2, 1}
	got, err := Discover(rel, Config{MaxThreshold: 3, RHSGrid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if grid[0] != 3 || grid[1] != 0 || grid[2] != 2 || grid[3] != 1 {
		t.Errorf("Discover reordered the caller's RHSGrid to %v", grid)
	}
	want, err := Discover(rel, Config{MaxThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := encodeSet(t, got, rel.Schema()), encodeSet(t, want, rel.Schema()); !bytes.Equal(g, w) {
		t.Errorf("unsorted RHSGrid discovered\n%s\nwant the default grid's\n%s", g, w)
	}
}

func TestDiscoveryMinSupport(t *testing.T) {
	rel := table2(t)
	low, err := Discover(rel, Config{MaxThreshold: 6, MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Discover(rel, Config{MaxThreshold: 6, MinSupport: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(high) > len(low) {
		t.Errorf("MinSupport=5 found %d > MinSupport=1's %d", len(high), len(low))
	}
}

func TestEnumerateSubsets(t *testing.T) {
	got := enumerateSubsets([]int{1, 2, 3}, 2)
	want := [][]int{{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("subsets = %v", got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("subsets = %v, want %v", got, want)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("subsets = %v, want %v", got, want)
			}
		}
	}
	if out := enumerateSubsets([]int{1, 2}, 0); len(out) != 0 {
		t.Errorf("k=0 subsets = %v", out)
	}
}

func TestDominatesRelation(t *testing.T) {
	rel := table2(t)
	s := rel.Schema()
	general := rfd.MustParse("Name(<=5) -> Phone(<=1)", s)
	tighterRHS := rfd.MustParse("Name(<=5) -> Phone(<=3)", s)
	narrowerLHS := rfd.MustParse("Name(<=3) -> Phone(<=1)", s)
	wider := rfd.MustParse("Name(<=5), City(<=2) -> Phone(<=1)", s)
	if !rfd.Implies(general, tighterRHS) {
		t.Error("tighter RHS at same LHS should be dominated")
	}
	if !rfd.Implies(general, narrowerLHS) {
		t.Error("narrower LHS threshold should be dominated")
	}
	if !rfd.Implies(general, wider) {
		t.Error("superset LHS should be dominated")
	}
	if rfd.Implies(tighterRHS, general) || rfd.Implies(wider, general) {
		t.Error("domination direction reversed")
	}
	if !rfd.Implies(general, general) {
		t.Error("domination must be reflexive")
	}
}
