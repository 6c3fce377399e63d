package engine

import (
	"repro/internal/dataset"
)

// Shared is a compiled relation frozen for concurrent reuse: the
// columnar form and the interning tables (with their pre-decoded rune
// slices) of one base instance, compiled once and then shared read-only
// across any number of concurrent evaluations — the compile-once
// serve-many artifact under core.Session.
//
// Two consumers derive views from it:
//
//   - View() is a frozen single-relation view over the base itself —
//     discovery and profiling run against it;
//   - Extend(target) is a two-tier view: the target's rows are compiled
//     into request-local columns (copy-on-write — novel strings intern
//     into a local upper tier), while every base row and interned id is
//     shared.
//
// The base relation must not be mutated after Precompile; callers that
// cannot guarantee that should pass a clone.
type Shared struct {
	rel     *dataset.Relation
	n       int
	m       int
	cols    []col
	interns []*interner
}

// Precompile compiles the base instance into a Shared.
func Precompile(base *dataset.Relation) *Shared {
	v := Compile(base)
	return &Shared{rel: base, n: v.n, m: v.m, cols: v.cols, interns: v.interns}
}

// Relation returns the base instance. Callers must not mutate it.
func (s *Shared) Relation() *dataset.Relation { return s.rel }

// Len returns the number of base rows.
func (s *Shared) Len() int { return s.n }

// Arity returns the schema arity.
func (s *Shared) Arity() int { return s.m }

// View returns a frozen single-relation view over the base: reads are
// safe for any number of concurrent users; Set and Append panic — the
// base is immutable by contract.
func (s *Shared) View() *View {
	return &View{
		rels:    []*dataset.Relation{s.rel},
		offsets: []int{0},
		n:       s.n,
		m:       s.m,
		cols:    s.cols,
		interns: s.interns,
		frozen:  true,
	}
}

// Extend compiles the target relation into a two-tier view over
// target rows followed by the base rows (the donor-pool layout of
// CompileWithDonors), sharing the base's columns and interning tables.
// Only the target's rows are compiled — O(target), not
// O(target+base) — which is what makes a long-lived Session's per-call
// cost independent of the base size. The target's schema must have the
// base's arity (the caller validates full compatibility).
//
// The returned view is private to the caller: Set writes only the
// target segment and novel strings intern into a view-local upper
// tier; nothing is written back to the Shared.
func (s *Shared) Extend(target *dataset.Relation) *View {
	tlen := target.Len()
	v := &View{
		rels:    []*dataset.Relation{target, s.rel},
		offsets: []int{0, tlen},
		n:       tlen + s.n,
		m:       s.m,
		cols:    make([]col, s.m),
		interns: make([]*interner, s.m),
		base:    s,
		baseOff: tlen,
	}
	for a := 0; a < s.m; a++ {
		v.interns[a] = &interner{base: s.interns[a], nb: int32(len(s.interns[a].strs))}
		v.cols[a] = col{
			kind: make([]dataset.Kind, tlen),
			num:  make([]float64, tlen),
			sid:  make([]int32, tlen),
		}
	}
	for i := 0; i < tlen; i++ {
		t := target.Row(i)
		for a := 0; a < s.m; a++ {
			v.setCell(i, a, t[a])
		}
	}
	return v
}
