package rfd

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/dataset"
)

// Set is a collection Σ of RFDcs.
type Set []*RFD

// NonKeys returns Σ' — the dependencies that are not key-RFDcs on the
// instance (Algorithm 1, line 1). Order is preserved.
func (s Set) NonKeys(rel *dataset.Relation) Set {
	out := make(Set, 0, len(s))
	for _, r := range s {
		if !r.IsKey(rel) {
			out = append(out, r)
		}
	}
	return out
}

// ForRHS returns Σ'_A — the dependencies whose RHS is the given attribute
// (Algorithm 1, line 8). Order is preserved.
func (s Set) ForRHS(attr int) Set {
	var out Set
	for _, r := range s {
		if r.RHS.Attr == attr {
			out = append(out, r)
		}
	}
	return out
}

// HoldsOn reports whether every dependency in the set holds on the
// instance (r ⊨ Σ, Definition 4.3).
func (s Set) HoldsOn(rel *dataset.Relation) bool {
	for _, r := range s {
		if !r.HoldsOn(rel) {
			return false
		}
	}
	return true
}

// Clone deep-copies the set, so that callers can replace or drop its
// dependencies without touching the originals. The copies share two
// slabs (dependencies and LHS constraints); each LHS is capped at its
// own length, so an append never reaches a neighbour's.
func (s Set) Clone() Set {
	n := 0
	for _, r := range s {
		n += len(r.LHS)
	}
	lhs := make([]Constraint, 0, n)
	deps := make([]RFD, len(s))
	out := make(Set, len(s))
	for i, r := range s {
		k := len(lhs)
		lhs = append(lhs, r.LHS...)
		deps[i] = RFD{LHS: lhs[k:len(lhs):len(lhs)], RHS: r.RHS}
		out[i] = &deps[i]
	}
	return out
}

// Contains reports whether the set holds a structurally equal dependency.
func (s Set) Contains(r *RFD) bool {
	for _, o := range s {
		if o.Equal(r) {
			return true
		}
	}
	return false
}

// Cluster is ρ_A^i: the RFDcs for one RHS attribute sharing the RHS
// threshold i (Sec. 5.2).
type Cluster struct {
	Threshold float64
	RFDs      Set
}

// ClusterByRHSThreshold partitions the set (assumed to share one RHS
// attribute) into Λ_Σ'_A — clusters keyed by RHS threshold, returned in
// ascending threshold order. The prose of step (b) and the worked example
// of Figure 1 consider clusters "from lowest to highest threshold values";
// callers wanting the opposite order (Algorithm 2's literal line 1) can
// reverse the slice.
//
// A cluster holds its members in set order. Thresholds that compare
// equal (0 and -0) share a cluster, which carries the last member's
// threshold; a NaN threshold equals nothing, so each such dependency is
// a cluster of its own, and those clusters come first, in set order.
func ClusterByRHSThreshold(s Set) []Cluster {
	sorted := slices.Clone(s)
	slices.SortStableFunc(sorted, func(a, b *RFD) int {
		return cmp.Compare(a.RHS.Threshold, b.RHS.Threshold)
	})
	n := 0
	for i, r := range sorted {
		if i == 0 || r.RHS.Threshold != sorted[i-1].RHS.Threshold {
			n++
		}
	}
	out := make([]Cluster, 0, n)
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].RHS.Threshold == sorted[lo].RHS.Threshold {
			hi++
		}
		out = append(out, Cluster{Threshold: sorted[hi-1].RHS.Threshold, RFDs: sorted[lo:hi:hi]})
		lo = hi
	}
	return out
}

// WriteSet writes the set one dependency per line in Format form, with a
// leading comment noting the count. The output loads back with ReadSet.
func WriteSet(w io.Writer, s Set, schema *dataset.Schema) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d RFDcs\n", len(s))
	for _, r := range s {
		if _, err := fmt.Fprintln(bw, r.Format(schema)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSet reads a set written by WriteSet: one dependency per line,
// blank lines and lines starting with '#' ignored.
func ReadSet(r io.Reader, schema *dataset.Schema) (Set, error) {
	var out Set
	sc := bufio.NewScanner(r)
	lineNum := 0
	for sc.Scan() {
		lineNum++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dep, err := Parse(line, schema)
		if err != nil {
			return nil, fmt.Errorf("rfd: line %d: %w", lineNum, err)
		}
		out = append(out, dep)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadSetFile is ReadSet over a file path.
func ReadSetFile(path string, schema *dataset.Schema) (Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSet(f, schema)
}

// WriteSetFile is WriteSet to a file path.
func WriteSetFile(path string, s Set, schema *dataset.Schema) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSet(f, s, schema); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
