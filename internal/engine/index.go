package engine

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/rfd"
)

// Index is the generalized candidate index over a view, subsuming the
// threshold-0-only donor index: for every attribute appearing on some
// LHS in Σ it maintains
//
//   - exact-match buckets (value class + payload → rows), answering
//     threshold-0 constraints exactly;
//   - a sorted numeric column (value, row), answering positive numeric
//     thresholds with a range probe [v-th, v+th];
//   - string length buckets (rune count → rows), pruning positive
//     string thresholds via edit distance >= length difference.
//
// A probe returns a superset of the rows that can satisfy the probed
// constraint, so restricting the candidate scan to the probe result is
// always sound; the scan itself still scores every returned row.
type Index struct {
	v      *View
	lhs    []bool            // attr appears on some LHS in Σ
	eq     []map[eqKey][]int // exact-match buckets per attr
	numV   [][]float64       // sorted numeric values per attr
	numR   [][]int           // rows aligned with numV
	lens   []map[int][]int   // string length buckets per attr
	probes atomic.Int64
}

// eqKey buckets a cell by value class and payload: strings by interned
// id, numerics by canonicalized float bits (int/float cross-kind pairs
// with equal payloads must collide, and -0 must match +0), booleans by
// 0/1.
type eqKey struct {
	cls  uint8
	bits uint64
}

const (
	clsString uint8 = iota
	clsNumeric
	clsBool
)

// eqKeyFor returns the bucket key for a flat cell, or ok=false for a
// null cell.
func (ix *Index) eqKeyFor(flat, attr int) (eqKey, bool) {
	c, r := ix.v.colAt(attr, flat)
	switch k := c.kind[r]; {
	case k == dataset.KindNull:
		return eqKey{}, false
	case k == dataset.KindString:
		return eqKey{cls: clsString, bits: uint64(c.sid[r])}, true
	case k == dataset.KindBool:
		return eqKey{cls: clsBool, bits: uint64(c.num[r])}, true
	default:
		f := c.num[r]
		if f == 0 {
			f = 0 // canonicalize -0
		}
		return eqKey{cls: clsNumeric, bits: math.Float64bits(f)}, true
	}
}

// NewIndex builds the index over every flat row of the view for the
// attributes Σ constrains on some LHS. It returns nil when there are
// none (no index is worth building then).
func NewIndex(v *View, sigma rfd.Set) *Index {
	m := v.Arity()
	lhs := make([]bool, m)
	any := false
	for _, dep := range sigma {
		for _, c := range dep.LHS {
			lhs[c.Attr] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	ix := &Index{
		v:    v,
		lhs:  lhs,
		eq:   make([]map[eqKey][]int, m),
		numV: make([][]float64, m),
		numR: make([][]int, m),
		lens: make([]map[int][]int, m),
	}
	for a := 0; a < m; a++ {
		if !lhs[a] {
			continue
		}
		ix.eq[a] = make(map[eqKey][]int)
		ix.lens[a] = make(map[int][]int)
	}
	// Bulk build: flat indices arrive ascending, so appending keeps every
	// bucket's row list sorted without per-insert shifting; the sorted
	// numeric columns are sorted once at the end (O(n log n) instead of
	// the O(n²) memmove of repeated sorted inserts).
	for flat := 0; flat < v.Len(); flat++ {
		for a := 0; a < m; a++ {
			if !lhs[a] {
				continue
			}
			key, ok := ix.eqKeyFor(flat, a)
			if !ok {
				continue
			}
			ix.eq[a][key] = append(ix.eq[a][key], flat)
			c, r := v.colAt(a, flat)
			switch c.kind[r] {
			case dataset.KindString:
				l := v.interns[a].lenOf(c.sid[r])
				ix.lens[a][l] = append(ix.lens[a][l], flat)
			case dataset.KindInt, dataset.KindFloat:
				ix.numV[a] = append(ix.numV[a], c.num[r])
				ix.numR[a] = append(ix.numR[a], flat)
			}
		}
	}
	for a := 0; a < m; a++ {
		if lhs[a] && len(ix.numV[a]) > 0 {
			sortNumeric(ix.numV[a], ix.numR[a])
		}
	}
	return ix
}

// sortNumeric sorts the paired (value, row) columns by (value, row) in
// lockstep — the order Insert maintains.
func sortNumeric(vals []float64, rows []int) {
	entries := make([]numEntry, len(vals))
	for i := range entries {
		entries[i] = numEntry{v: vals[i], r: rows[i]}
	}
	slices.SortFunc(entries, func(a, b numEntry) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return a.r - b.r
		}
	})
	for i, e := range entries {
		vals[i], rows[i] = e.v, e.r
	}
}

type numEntry struct {
	v float64
	r int
}

// add registers one non-null cell in every structure covering its
// class, preserving each structure's order for an arbitrary flat index.
func (ix *Index) add(flat, attr int) {
	key, ok := ix.eqKeyFor(flat, attr)
	if !ok {
		return
	}
	ix.eq[attr][key] = insertRow(ix.eq[attr][key], flat)
	c, r := ix.v.colAt(attr, flat)
	switch c.kind[r] {
	case dataset.KindString:
		l := ix.v.interns[attr].lenOf(c.sid[r])
		ix.lens[attr][l] = insertRow(ix.lens[attr][l], flat)
	case dataset.KindInt, dataset.KindFloat:
		val := c.num[r]
		pos := sort.SearchFloat64s(ix.numV[attr], val)
		// Among equal values, keep rows ascending.
		for pos < len(ix.numV[attr]) && ix.numV[attr][pos] == val && ix.numR[attr][pos] < flat {
			pos++
		}
		ix.numV[attr] = append(ix.numV[attr], 0)
		copy(ix.numV[attr][pos+1:], ix.numV[attr][pos:])
		ix.numV[attr][pos] = val
		ix.numR[attr] = append(ix.numR[attr], 0)
		copy(ix.numR[attr][pos+1:], ix.numR[attr][pos:])
		ix.numR[attr][pos] = flat
	}
}

// insertRow inserts row into an ascending list, keeping order.
func insertRow(list []int, row int) []int {
	pos := sort.SearchInts(list, row)
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = row
	return list
}

// Insert records a committed imputation: the new value at (row, attr)
// becomes probeable. Nil-safe; no-op for unindexed attributes and null
// values (imputation only ever turns nulls into values, so no deletes).
func (ix *Index) Insert(row, attr int) {
	if ix == nil || !ix.lhs[attr] {
		return
	}
	ix.add(row, attr)
}

// Probes returns how many index probes were answered. Nil-safe.
func (ix *Index) Probes() int64 {
	if ix == nil {
		return 0
	}
	return ix.probes.Load()
}

// probe describes one answerable constraint probe: an estimate of its
// result size and a collector appending the matching rows.
type probe struct {
	est     int
	collect func(out []int) []int
}

// probeFor returns the cheapest probe answering one LHS constraint for
// the query row, or ok=false when the constraint's class has no
// structure (never happens for indexed attributes with non-null query
// values, kept for safety).
func (ix *Index) probeFor(row int, c rfd.Constraint) (probe, bool) {
	v := ix.v
	attr := c.Attr
	cl, rr := v.colAt(attr, row)
	kind := cl.kind[rr]
	if c.Threshold == 0 {
		key, ok := ix.eqKeyFor(row, attr)
		if !ok {
			return probe{}, false
		}
		rows := ix.eq[attr][key]
		return probe{est: len(rows), collect: func(out []int) []int {
			return append(out, rows...)
		}}, true
	}
	switch {
	case kind == dataset.KindString:
		l := v.interns[attr].lenOf(cl.sid[rr])
		bound := int(math.Floor(c.Threshold))
		est := 0
		for d := l - bound; d <= l+bound; d++ {
			est += len(ix.lens[attr][d])
		}
		return probe{est: est, collect: func(out []int) []int {
			for d := l - bound; d <= l+bound; d++ {
				out = append(out, ix.lens[attr][d]...)
			}
			return out
		}}, true
	case kind.Numeric():
		val := cl.num[rr]
		lo := sort.SearchFloat64s(ix.numV[attr], val-c.Threshold)
		hi := sort.Search(len(ix.numV[attr]), func(k int) bool {
			return ix.numV[attr][k] > val+c.Threshold
		})
		return probe{est: hi - lo, collect: func(out []int) []int {
			return append(out, ix.numR[attr][lo:hi]...)
		}}, true
	case kind == dataset.KindBool:
		if c.Threshold >= 1 {
			t := ix.eq[attr][eqKey{cls: clsBool, bits: 1}]
			f := ix.eq[attr][eqKey{cls: clsBool, bits: 0}]
			return probe{est: len(t) + len(f), collect: func(out []int) []int {
				return append(append(out, t...), f...)
			}}, true
		}
		rows := ix.eq[attr][eqKey{cls: clsBool, bits: uint64(cl.num[rr])}]
		return probe{est: len(rows), collect: func(out []int) []int {
			return append(out, rows...)
		}}, true
	default:
		return probe{}, false
	}
}

// CandidateRows returns the flat rows worth scanning for the cluster:
// for each dependency, the result of its most selective answerable
// probe (a dependency with a null query component on its LHS
// contributes nothing — its premise can never be satisfied). The result
// is a deduplicated ascending row list excluding the query row; the
// boolean is false when the index cannot beat the full sweep — some
// dependency has no answerable probe, or the combined probe estimate
// approaches the instance size. Nil-safe.
func (ix *Index) CandidateRows(row int, deps rfd.Set) ([]int, bool) {
	if ix == nil {
		return nil, false
	}
	v := ix.v
	var probes []probe
	total := 0
	for _, dep := range deps {
		null := false
		for _, c := range dep.LHS {
			if v.IsNull(row, c.Attr) {
				null = true
				break
			}
		}
		if null {
			continue
		}
		var best probe
		found := false
		for _, c := range dep.LHS {
			p, ok := ix.probeFor(row, c)
			if !ok {
				continue
			}
			if !found || p.est < best.est {
				best, found = p, true
			}
		}
		if !found {
			return nil, false
		}
		probes = append(probes, best)
		total += best.est
	}
	if total > v.Len()*3/4 {
		// The probes are barely selective: the dedup + sort overhead
		// would exceed what the sweep saves.
		return nil, false
	}
	var out []int
	for _, p := range probes {
		out = p.collect(out)
	}
	ix.probes.Add(int64(len(probes)))
	return finishCandidates(out, row), true
}

// finishCandidates turns raw probe output into the CandidateRows
// contract: a deduplicated ascending row list excluding the query row.
func finishCandidates(out []int, row int) []int {
	if len(out) == 0 {
		return nil
	}
	sort.Ints(out)
	dedup := out[:1]
	for _, r := range out[1:] {
		if r != dedup[len(dedup)-1] {
			dedup = append(dedup, r)
		}
	}
	// Exclude the query row itself.
	for k, r := range dedup {
		if r == row {
			dedup = append(dedup[:k], dedup[k+1:]...)
			break
		}
	}
	return dedup
}
