package core

// Live-data sessions: ApplyDelta evolves a compiled Session's base
// instance in place — epoch-based RCU instead of a full recompile.
//
// A Session with a base holds its compiled state (engine.Shared, the
// optional candidate index, and the Σ in force) in an immutable
// epochState published through an atomic pointer. Readers (Impute,
// Explain, EncodeArtifact, BaseView) pin the current epoch for the
// duration of one call — a counter increment, no lock — so a
// concurrent ApplyDelta can never tear the (view, Σ) pair a run sees.
// The writer (serialized by applyMu) builds the entire next epoch off
// to the side, publishes it with one atomic store, and marks the old
// epoch superseded; the old epoch is retired — an accounting event,
// the GC owns the memory — when its last pinned reader unpins.
//
// What a delta invalidates is deliberately minimal:
//
//   - interned string ids are stable across epochs (Evolve flat-clones
//     the interning tables), so the memoized distance cache is carried
//     as-is; only an interner compaction — deletes leaving a table
//     mostly dead — remaps ids, and then the new epoch gets a copy of
//     the cache with exactly the compacted attributes' shards rebuilt;
//   - Σ is revalidated only against the pairs the delta introduces
//     (discovery.RevalidateRows); deletes are monotone-safe and check
//     nothing;
//   - no candidate index is maintained: Impute never reads one in
//     session mode, so every successor epoch publishes none.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// epochState is one immutable published generation of a session's
// compiled base. Everything a reader dereferences through it is frozen;
// successor epochs share structure (interner slabs, cache shards,
// index buckets) but never mutate it.
type epochState struct {
	// seq is the epoch number: 0 at construction, +1 per applied delta.
	seq uint64
	// shared is the compiled base instance of this epoch.
	shared *engine.Shared
	// index is the candidate index over sigma's LHS attributes, carried
	// from an artifact load into epoch 0 only (nil for freshly compiled
	// sessions and after any delta — the Impute hot path does not
	// consult it, and EncodeArtifact builds one when it is nil).
	index *engine.Index
	// sigma is the dependency set in force at this epoch.
	sigma rfd.Set
	// rec receives the retirement event.
	rec obs.Recorder

	pins       atomic.Int64
	superseded atomic.Bool
	retired    atomic.Bool
}

// pin takes a read reference on the current epoch, or returns nil for
// self-contained sessions. The recheck after the increment closes the
// race with a concurrent publish: if the epoch moved on while we were
// pinning, drop the stale pin and take the new epoch instead.
func (s *Session) pin() *epochState {
	for {
		ep := s.cur.Load()
		if ep == nil {
			return nil
		}
		ep.pins.Add(1)
		if s.cur.Load() == ep {
			return ep
		}
		ep.unpin()
	}
}

// unpin drops a read reference; the last reader off a superseded epoch
// retires it.
func (ep *epochState) unpin() {
	if ep.pins.Add(-1) == 0 && ep.superseded.Load() {
		ep.retire()
	}
}

// retire records the epoch's end of life exactly once. Memory is the
// GC's business; this is the accounting half of reclamation.
func (ep *epochState) retire() {
	if ep.retired.CompareAndSwap(false, true) {
		ep.rec.Add(obs.CtrEpochsRetired, 1)
	}
}

// Epoch returns the session's current epoch sequence number: 0 at
// construction (and always 0 for self-contained sessions), incremented
// by every applied delta.
func (s *Session) Epoch() uint64 {
	if ep := s.cur.Load(); ep != nil {
		return ep.seq
	}
	return 0
}

// CellUpdate assigns one value to one cell of the base instance, row
// and attribute addressed in the pre-delta numbering.
type CellUpdate struct {
	// Row is the base row in the current epoch's numbering.
	Row int
	// Attr is the attribute index.
	Attr int
	// Value is the new cell value; its kind must match the schema
	// (dataset.Null clears the cell).
	Value dataset.Value
}

// Delta is the one mutation surface of a live session: a batch of
// inserts, cell updates, and row deletes applied atomically by
// ApplyDelta. Row handles (Updates[i].Row, Deletes[i]) address the
// pre-delta epoch's numbering; the three groups apply as updates, then
// deletes, then inserts, so an update to a deleted row is legal and
// wasted, later updates to the same cell win, and duplicate deletes
// collapse silently. Do not mutate a served session's base Relation
// directly — every read path snapshots compiled state that direct
// mutation would silently diverge from.
type Delta struct {
	// Inserts appends tuples (schema arity, schema kinds) to the base.
	Inserts []dataset.Tuple
	// Updates assigns values to existing cells.
	Updates []CellUpdate
	// Deletes removes rows; surviving rows compact in order.
	Deletes []int
}

// Empty reports whether the delta mutates nothing.
func (d *Delta) Empty() bool {
	return len(d.Inserts) == 0 && len(d.Updates) == 0 && len(d.Deletes) == 0
}

// DeltaResult reports what one ApplyDelta published.
type DeltaResult struct {
	// Epoch is the new epoch's sequence number.
	Epoch uint64 `json:"epoch"`
	// Rows is the base instance's row count at the new epoch.
	Rows int `json:"rows"`
	// Inserted, Updated, Deleted count the applied mutations (Updated
	// excludes updates wasted on rows the same delta deleted; Deleted
	// excludes duplicate handles).
	Inserted int `json:"inserted"`
	Updated  int `json:"updated"`
	Deleted  int `json:"deleted"`
	// Rules is |Σ| after revalidation; SigmaDropped and SigmaTightened
	// are the repairs revalidation applied.
	Rules          int `json:"rules"`
	SigmaDropped   int `json:"sigma_dropped"`
	SigmaTightened int `json:"sigma_tightened"`
	// CompactedAttrs and InvalidatedCacheShards report the only state a
	// delta discards: densely re-interned attributes and the
	// distance-cache shards their entries lived in.
	CompactedAttrs         int `json:"compacted_attrs"`
	InvalidatedCacheShards int `json:"invalidated_cache_shards"`
	// IndexRebuilt is always false: a delta no longer maintains a
	// candidate index (the successor epoch carries none). The field stays
	// for /v1/delta clients that read it.
	IndexRebuilt bool `json:"index_rebuilt"`
}

// validateDelta bounds- and kind-checks every mutation against the
// current epoch before anything is built, so a bad delta is rejected
// whole. It returns the delete mask and the distinct delete count.
func validateDelta(d *Delta, schema *dataset.Schema, n int) ([]bool, int, error) {
	if d.Empty() {
		return nil, 0, fmt.Errorf("core: delta has no mutations")
	}
	m := schema.Len()
	for i, u := range d.Updates {
		if u.Row < 0 || u.Row >= n {
			return nil, 0, fmt.Errorf("core: delta update %d: row %d outside base of %d rows", i, u.Row, n)
		}
		if u.Attr < 0 || u.Attr >= m {
			return nil, 0, fmt.Errorf("core: delta update %d: attr %d outside arity %d", i, u.Attr, m)
		}
		if v := u.Value; !v.IsNull() {
			want := schema.Attr(u.Attr).Kind
			if v.Kind() != want && !(v.Kind().Numeric() && want.Numeric()) {
				return nil, 0, fmt.Errorf("core: delta update %d: attribute %q expects %v, got %v",
					i, schema.Attr(u.Attr).Name, want, v.Kind())
			}
		}
	}
	var del []bool
	deleted := 0
	if len(d.Deletes) > 0 {
		del = make([]bool, n)
		for i, r := range d.Deletes {
			if r < 0 || r >= n {
				return nil, 0, fmt.Errorf("core: delta delete %d: row %d outside base of %d rows", i, r, n)
			}
			if !del[r] {
				del[r] = true
				deleted++
			}
		}
	}
	for i, t := range d.Inserts {
		if len(t) != m {
			return nil, 0, fmt.Errorf("core: delta insert %d: tuple arity %d != schema arity %d", i, len(t), m)
		}
	}
	return del, deleted, nil
}

// ApplyDelta atomically applies one batch of mutations to the session's
// base instance and publishes the result as a new epoch. In-flight and
// future Impute/Explain calls are never disturbed: each call pins one
// epoch for its whole duration, and the logical relation at every epoch
// is exactly what a from-scratch NewSession over the mutated relation
// would compile — imputations are byte-identical to that recompile.
//
// Σ is revalidated against the pairs the delta introduces through the
// discovery repair rule (the set may come back with dependencies
// tightened or dropped; Sigma() always returns the set in force).
// Writers are serialized; concurrency costs fall only on writers.
//
// Self-contained sessions (nil base) have no live instance and return
// an error. A cancelled context aborts before publication — the
// session then still serves the old epoch.
func (s *Session) ApplyDelta(ctx context.Context, d Delta) (*DeltaResult, error) {
	if ctx.Err() != nil {
		return nil, engine.Canceled(ctx)
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	cur := s.cur.Load()
	if cur == nil {
		return nil, fmt.Errorf("core: ApplyDelta on a session without a base instance")
	}
	rec := s.im.opts.recorder()
	sp := obs.SpanFromContext(ctx).Child("apply_delta")
	defer sp.End()

	old := cur.shared.Relation()
	schema := old.Schema()
	n := old.Len()
	del, deleted, err := validateDelta(&d, schema, n)
	if err != nil {
		return nil, err
	}

	// Build the next logical relation: updates on the pre-delta
	// numbering, then deletes (order-preserving compaction), then
	// inserts appended.
	buildStart := time.Now()
	buildSpan := sp.Child("delta_build")
	next := dataset.NewRelation(schema)
	newRow := make([]int, n)
	for i := 0; i < n; i++ {
		if del != nil && del[i] {
			newRow[i] = -1
			continue
		}
		newRow[i] = next.Len()
		next.MustAppend(old.Row(i).Clone())
	}
	updated := 0
	for _, u := range d.Updates {
		if newRow[u.Row] >= 0 {
			next.Set(newRow[u.Row], u.Attr, u.Value)
			updated++
		}
	}
	for i, t := range d.Inserts {
		if err := next.Append(t.Clone()); err != nil {
			return nil, fmt.Errorf("core: delta insert %d: %w", i, err)
		}
	}
	evolved, est, err := cur.shared.Evolve(next)
	if err != nil {
		return nil, err
	}
	buildSpan.End()
	rec.Time(obs.PhaseDeltaBuild, time.Since(buildStart))
	if ctx.Err() != nil {
		return nil, engine.Canceled(ctx)
	}

	// Revalidate Σ against the pairs the changed rows introduce, in the
	// new numbering. Deletes alone introduce no pairs.
	revalStart := time.Now()
	revalSpan := sp.Child("delta_revalidate")
	affected := make([]int, 0, len(d.Updates)+len(d.Inserts))
	for _, u := range d.Updates {
		if newRow[u.Row] >= 0 {
			affected = append(affected, newRow[u.Row])
		}
	}
	for i := range d.Inserts {
		affected = append(affected, n-deleted+i)
	}
	sigma, dropped, tightened := discovery.RevalidateRows(evolved.View(), cur.sigma, affected)
	if revalSpan.Enabled() {
		revalSpan.Int("dropped", int64(dropped))
		revalSpan.Int("tightened", int64(tightened))
	}
	revalSpan.End()
	rec.Time(obs.PhaseDeltaRevalidate, time.Since(revalStart))
	if ctx.Err() != nil {
		return nil, engine.Canceled(ctx)
	}

	// The successor carries no candidate index: Impute never consults
	// one in session mode, and EncodeArtifact builds its own when the
	// epoch has none.
	ep := &epochState{
		seq:    cur.seq + 1,
		shared: evolved,
		sigma:  sigma,
		rec:    rec,
	}
	s.cur.Store(ep)
	cur.superseded.Store(true)
	if cur.pins.Load() == 0 {
		cur.retire()
	}

	rec.Add(obs.CtrDeltaApplied, 1)
	rec.Add(obs.CtrDeltaRowsInserted, int64(len(d.Inserts)))
	rec.Add(obs.CtrDeltaRowsUpdated, int64(updated))
	rec.Add(obs.CtrDeltaRowsDeleted, int64(deleted))
	rec.Add(obs.CtrDeltaSigmaDropped, int64(dropped))
	rec.Add(obs.CtrDeltaSigmaTightened, int64(tightened))
	rec.Add(obs.CtrDeltaCacheShardsInvalidated, int64(est.InvalidatedCacheShards))
	rec.Add(obs.CtrInternersCompacted, int64(est.CompactedAttrs))
	res := &DeltaResult{
		Epoch:                  ep.seq,
		Rows:                   evolved.Len(),
		Inserted:               len(d.Inserts),
		Updated:                updated,
		Deleted:                deleted,
		Rules:                  len(sigma),
		SigmaDropped:           dropped,
		SigmaTightened:         tightened,
		CompactedAttrs:         est.CompactedAttrs,
		InvalidatedCacheShards: est.InvalidatedCacheShards,
	}
	if sp.Enabled() {
		sp.Int("epoch", int64(ep.seq))
		sp.Int("inserted", int64(res.Inserted))
		sp.Int("updated", int64(res.Updated))
		sp.Int("deleted", int64(res.Deleted))
		sp.Int("rules", int64(res.Rules))
	}
	return res, nil
}

// sigmaAt returns the dependency set a pinned epoch serves (nil epoch =
// the constructor-time set of a self-contained session).
func (s *Session) sigmaAt(ep *epochState) rfd.Set {
	if ep != nil {
		return ep.sigma
	}
	return s.im.sigma
}
