package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/rfd"
)

// findCandidateTuplesParallel computes the same candidate list as
// findCandidateTuples, chunking the donor scan across workers. Chunks
// are contiguous row ranges concatenated in order, so the output is
// bit-identical to the serial scan. The workers read the view
// concurrently; the sharded distance cache makes that safe. Trace
// emission happens strictly after this merge (and traced cells verify
// with the serial witness-reporting path), so a cell's DonorConsidered
// events are in deterministic ranked order regardless of worker count,
// and a cell's whole event sequence reaches the Tracer in one atomic
// EmitCell.
//
// Cancellation: each worker checks the context every engine.CheckEvery
// rows and returns early; the merged result is then partial and the
// caller (which re-checks ctx after the scan) must discard it.
//
// m is the run goroutine's matcher (used directly on the serial
// fallback); each worker goroutine evaluates through a matcher of its
// own, so the kernel arenas are never shared across goroutines.
func findCandidateTuplesParallel(ctx context.Context, m *engine.Matcher, row, attr int, deps rfd.Set, workers int) []candidate {
	v := m.View()
	n := v.Len()
	if workers <= 1 || n < 2*workers {
		return findCandidateTuples(ctx, m, row, attr, deps)
	}
	ranges := par.Chunks(n, workers)
	parts := make([][]candidate, len(ranges))
	var wg sync.WaitGroup
	for ci, rg := range ranges {
		wg.Add(1)
		go func(ci int, lo, hi int) {
			defer wg.Done()
			wm := v.Matcher()
			var local []candidate
			for j := lo; j < hi; j++ {
				if (j-lo)%engine.CheckEvery == 0 && ctx.Err() != nil {
					break
				}
				if j == row {
					continue
				}
				if v.IsNull(j, attr) {
					continue
				}
				if d, ok := wm.DistMin(deps, row, j); ok {
					local = append(local, candidate{row: j, dist: d})
				}
			}
			parts[ci] = local
		}(ci, rg[0], rg[1])
	}
	wg.Wait()
	var out []candidate
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// newKeyTrackerParallel computes the initial key status with the pair
// scan chunked over the first index. Each dependency's status is an
// atomic flag: a stale read only causes redundant work, never a wrong
// verdict, because absorb-marking is monotone.
func newKeyTrackerParallel(ctx context.Context, v *engine.View, sigma rfd.Set, workers int) *keyTracker {
	n := v.TargetLen()
	if workers <= 1 || n < 2*workers || len(sigma) == 0 {
		return newKeyTracker(ctx, v, sigma)
	}
	kt := &keyTracker{v: v, m: v.Matcher(), sigma: sigma, isKey: make([]bool, len(sigma))}
	flags := make([]atomic.Bool, len(sigma)) // true = still key
	for i := range flags {
		flags[i].Store(true)
	}
	var remaining atomic.Int64
	remaining.Store(int64(len(sigma)))

	var wg sync.WaitGroup
	for _, rg := range par.Chunks(n, workers) {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			wm := v.Matcher()
			for i := lo; i < hi; i++ {
				if remaining.Load() == 0 || ctx.Err() != nil {
					return
				}
				for j := i + 1; j < v.Len(); j++ {
					for s, dep := range sigma {
						if flags[s].Load() && wm.MatchesLHS(dep, i, j) {
							if flags[s].CompareAndSwap(true, false) {
								remaining.Add(-1)
							}
						}
					}
				}
			}
		}(rg[0], rg[1])
	}
	wg.Wait()
	for s := range flags {
		kt.isKey[s] = flags[s].Load()
		if kt.isKey[s] {
			kt.keys++
		}
	}
	return kt
}
