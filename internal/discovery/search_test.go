package discovery

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/rfd"
)

// This file checks the lattice search against a literal transcription
// of the fold it replaces: every violating prefix pattern goes through
// the greedy cut in order, and every β re-counts its support from the
// first pattern, skipping to the next β on a failure. The search under
// test visits only the patterns in its cap bitsets and ends a job at
// the first support failure; both must be invisible in Σ.

// literalGreedyAdvance folds the violating patterns into th one by one,
// in order, testing each against every LHS constraint.
func literalGreedyAdvance(st *patStore, violating []int, lhs []int, th []float64) bool {
	for _, idx := range violating {
		satisfied := true
		for i, a := range lhs {
			d := st.at(idx, a)
			if distance.IsMissing(d) || d > th[i] {
				satisfied = false
				break
			}
		}
		if !satisfied {
			continue
		}
		best, bestD := -1, -1.0
		for i, a := range lhs {
			if d := st.at(idx, a); d > bestD {
				best, bestD = i, d
			}
		}
		if bestD <= 0 {
			return false
		}
		next := math.Ceil(bestD) - 1
		if next >= bestD {
			next = bestD - 1
		}
		if next < 0 {
			return false
		}
		th[best] = next
	}
	return true
}

// literalSupportAtLeast scans every pattern from the first until min of
// them satisfy every LHS constraint.
func literalSupportAtLeast(st *patStore, lhs []int, th []float64, min int) bool {
	if min <= 0 {
		return true
	}
	count := 0
	for k := 0; k < st.n; k++ {
		ok := true
		for i, a := range lhs {
			d := st.at(k, a)
			if distance.IsMissing(d) || d > th[i] {
				ok = false
				break
			}
		}
		if ok {
			if count++; count >= min {
				return true
			}
		}
	}
	return false
}

// literalSearch is the serial reference search: the same pattern
// orders, jobs and merge as searchCandidates, with the literal fold
// and support check.
func literalSearch(st *patStore, cfg *Config, m int) rfd.Set {
	orders := make([][]int, m)
	for rhs := range orders {
		orders[rhs] = rhsOrder(st, rhs)
	}
	jobs, plans, resLen := buildJobs(st, orders, cfg, m)
	results := make([]*rfd.RFD, resLen)
	for _, job := range jobs {
		plan, order := &plans[job.rhs], orders[job.rhs]
		th := make([]float64, len(job.lhs))
		for i, a := range job.lhs {
			th[i] = cfg.limitFor(a)
		}
		prev := 0
		for bi := len(plan.betas) - 1; bi >= 0; bi-- {
			cut := plan.cuts[bi]
			if cut > prev {
				if !literalGreedyAdvance(st, order[prev:cut], job.lhs, th) {
					break
				}
				prev = cut
			}
			if !literalSupportAtLeast(st, job.lhs, th, cfg.MinSupport) {
				continue
			}
			constraints := make([]rfd.Constraint, len(job.lhs))
			for i, a := range job.lhs {
				constraints[i] = rfd.Constraint{Attr: a, Threshold: th[i]}
			}
			dep, err := rfd.New(constraints, rfd.Constraint{Attr: job.rhs, Threshold: plan.betas[bi]})
			if err != nil {
				continue
			}
			results[job.res+bi*plan.stride] = dep
		}
	}
	var out rfd.Set
	for rhs := 0; rhs < m; rhs++ {
		var cands rfd.Set
		for _, dep := range results[plans[rhs].resStart:plans[rhs].resEnd] {
			if dep != nil {
				cands = append(cands, dep)
			}
		}
		if !cfg.KeepDominated {
			cands = rfd.Minimize(cands)
		}
		out = append(out, cands...)
	}
	return out
}

// randomStore builds an n-pattern store of arity m whose columns land
// in each encoding: small integers (u8), halves (f32) and tenths
// (f64), every column with missing components and, from the narrow
// value ranges, many ties.
func randomStore(rng *rand.Rand, n, m int) *patStore {
	st := &patStore{n: n, cols: make([]patCol, m)}
	for a := range st.cols {
		c := &st.cols[a]
		c.u8 = make([]uint8, n)
		enc := uint8(rng.Intn(3))
		missing := 0.05 + 0.2*rng.Float64()
		for k := 0; k < n; k++ {
			v := float64(rng.Intn(9))
			switch {
			case rng.Float64() < missing:
				v = distance.Missing
			case enc == encF32 && rng.Intn(2) == 0:
				v += 0.5
			case enc == encF64 && rng.Intn(2) == 0:
				v = float64(rng.Intn(90)) / 10
			}
			c.set(k, v)
		}
	}
	return st
}

// searchConfig is one config of the differential grid.
func searchConfig(rng *rand.Rand, m, maxLHS, minSupport int, keepDominated bool) Config {
	cfg := Config{MaxThreshold: 6, MaxLHS: maxLHS, MinSupport: minSupport, KeepDominated: keepDominated}
	if rng.Intn(2) == 0 {
		// Non-integral caps next to integral ones that distances hit
		// exactly.
		caps := []float64{2, 2.5, 3, 3.7, 4, 5.5, 6, 7}
		cfg.AttrLimits = make([]float64, m)
		for a := range cfg.AttrLimits {
			cfg.AttrLimits[a] = caps[rng.Intn(len(caps))]
		}
	}
	if rng.Intn(3) == 0 {
		cfg.RHSGrid = []float64{0, 0.5, 1, 2.5, 3, 4.25, 6}
	}
	return cfg
}

// TestSearchMatchesLiteralFold: on seeded random pattern stores, the
// search gives the formatted Σ of the literal fold under every MaxLHS
// 1..3, MinSupport 1 and 3, with and without dominance pruning, at one
// and two workers.
func TestSearchMatchesLiteralFold(t *testing.T) {
	stores := 40
	if testing.Short() {
		stores = 12
	}
	rng := rand.New(rand.NewSource(31))
	for s := 0; s < stores; s++ {
		m := 3 + rng.Intn(3)
		st := randomStore(rng, 40+rng.Intn(260), m)
		attrs := make([]dataset.Attribute, m)
		for a := range attrs {
			attrs[a] = dataset.Attribute{Name: fmt.Sprintf("A%d", a), Kind: dataset.KindFloat}
		}
		schema := dataset.NewSchema(attrs...)
		for _, maxLHS := range []int{1, 2, 3} {
			for _, minSupport := range []int{1, 3} {
				for _, keep := range []bool{false, true} {
					cfg := searchConfig(rng, m, maxLHS, minSupport, keep)
					if err := cfg.normalize(); err != nil {
						t.Fatal(err)
					}
					want := encodeSet(t, literalSearch(st, &cfg, m), schema)
					for _, workers := range []int{1, 2} {
						got := encodeSet(t, searchCandidates(context.Background(), st, &cfg, m, workers), schema)
						if !bytes.Equal(got, want) {
							t.Fatalf("store %d (n=%d m=%d) %+v workers=%d:\n%s\nwant the literal fold's\n%s",
								s, st.n, m, cfg, workers, got, want)
						}
					}
				}
			}
		}
	}
}
