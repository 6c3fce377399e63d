package engine

import (
	"fmt"

	"repro/internal/dataset"
)

// Interner-compaction trigger: after a delta, an attribute's interning
// table is rebuilt with dense ids when more than half its distinct
// values are no longer referenced by any live row AND the table is big
// enough for the dead weight to matter. Package variables (not consts)
// so the engine tests can force compaction on small instances.
var (
	compactMinDistinct = 256
	// dead/distinct must exceed compactDeadNum/compactDeadDen.
	compactDeadNum = 1
	compactDeadDen = 2
)

// EvolveStats reports what one Evolve did beyond the column rebuild.
type EvolveStats struct {
	// CompactedAttrs is how many attributes had their interning table
	// rebuilt with dense ids (dropping values no live row references).
	CompactedAttrs int
}

// flatClone copies a root interner for append-only extension by a
// successor epoch: the id map is copied (the old epoch's Extend-derived
// upper tiers read the original concurrently, so it must never grow
// under them) and the value slabs are shared with their capacity
// clipped to their length, so the first novel string reallocates
// instead of scribbling past the old epoch's view of the slab.
func (in *interner) flatClone() *interner {
	if in.base != nil {
		// Shared interners are always root (Compile, DecodeShared, and
		// Evolve itself only ever produce root tables).
		panic("engine: flatClone of a two-tier interner")
	}
	ids := make(map[string]int32, len(in.ids))
	for s, id := range in.ids {
		ids[s] = id
	}
	return &interner{
		ids:   ids,
		strs:  in.strs[:len(in.strs):len(in.strs)],
		runes: in.runes[:len(in.runes):len(in.runes)],
		lens:  in.lens[:len(in.lens):len(in.lens)],
		masks: in.masks[:len(in.masks):len(in.masks)],
	}
}

// setColCell writes one cell of a Shared-owned column, the standalone
// form of View.setCell (Evolve builds columns before any View exists).
func setColCell(c *col, in *interner, row int, val dataset.Value) {
	k := val.Kind()
	c.kind[row] = k
	switch k {
	case dataset.KindString:
		c.sid[row] = in.intern(val.Str())
		c.num[row] = 0
	case dataset.KindNull:
		c.sid[row] = -1
		c.num[row] = 0
	default:
		c.num[row] = val.Float()
		c.sid[row] = -1
	}
}

// Evolve compiles the successor of this base — the logical relation
// after a delta — into a new Shared, reusing this one's compiled state
// wherever the delta left it valid:
//
//   - interning tables are flat-cloned, so every string the instances
//     share keeps its id and its pre-decoded runes, length and alphabet
//     mask, and only novel strings are decoded; a delta thus costs no
//     re-decode of the strings it did not touch;
//   - when deletes leave an attribute's table mostly dead (see the
//     compaction trigger above), that attribute is re-interned densely,
//     so the dead values' decoded forms do not outlive the rows that
//     held them.
//
// The receiver is never mutated; any number of pinned readers may keep
// using it. next must not be mutated after the call (it becomes the new
// Shared's base relation) and must have the receiver's arity.
func (s *Shared) Evolve(next *dataset.Relation) (*Shared, EvolveStats, error) {
	if next.Schema().Len() != s.m {
		return nil, EvolveStats{}, fmt.Errorf("engine: Evolve arity %d != base arity %d", next.Schema().Len(), s.m)
	}
	n := next.Len()
	out := &Shared{
		rel:     next,
		n:       n,
		m:       s.m,
		cols:    make([]col, s.m),
		interns: make([]*interner, s.m),
	}
	for a := 0; a < s.m; a++ {
		out.interns[a] = s.interns[a].flatClone()
		out.cols[a] = col{
			kind: make([]dataset.Kind, n),
			num:  make([]float64, n),
			sid:  make([]int32, n),
		}
	}
	for i := 0; i < n; i++ {
		t := next.Row(i)
		for a := 0; a < s.m; a++ {
			setColCell(&out.cols[a], out.interns[a], i, t[a])
		}
	}

	var st EvolveStats
	for a := 0; a < s.m; a++ {
		in := out.interns[a]
		distinct := len(in.strs)
		if distinct <= compactMinDistinct {
			continue
		}
		live := make([]bool, distinct)
		liveCount := 0
		for _, id := range out.cols[a].sid {
			if id >= 0 && !live[id] {
				live[id] = true
				liveCount++
			}
		}
		if dead := distinct - liveCount; dead*compactDeadDen <= distinct*compactDeadNum {
			continue
		}
		// Re-intern the live values densely in first-appearance order and
		// rewrite the sid column in place (no View references it yet).
		fresh := &interner{ids: make(map[string]int32, liveCount)}
		c := &out.cols[a]
		for i, id := range c.sid {
			if id >= 0 {
				c.sid[i] = fresh.intern(in.strs[id])
			}
		}
		out.interns[a] = fresh
		st.CompactedAttrs++
	}
	return out, st, nil
}
