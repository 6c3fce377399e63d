package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rfd"
)

// donorIndex is the candidate-index surface the imputation loop probes,
// satisfied by both *engine.Index (the monolithic index) and
// *engine.ShardedIndex (the scatter-gather one). Call sites guard with
// a plain nil check — constructors below never wrap a typed nil into
// the interface.
type donorIndex interface {
	// CandidateRows returns the rows worth scanning for the cluster, or
	// ok=false when a full sweep is cheaper or required.
	CandidateRows(row int, deps rfd.Set) ([]int, bool)
	// Insert makes a committed imputation probeable.
	Insert(row, attr int)
	// Probes reports how many logical probes were answered.
	Probes() int64
}

// newDonorIndex builds the candidate index for a run: sharded when the
// options ask for it, monolithic otherwise, nil when Σ constrains no
// LHS attribute (both constructors decline then).
func newDonorIndex(eng *engine.View, sigma rfd.Set, shards int) donorIndex {
	if shards > 1 {
		if sx := engine.NewShardedIndex(eng, sigma, shards); sx != nil {
			return sx
		}
		return nil
	}
	if ix := engine.NewIndex(eng, sigma); ix != nil {
		return ix
	}
	return nil
}

// candidateRowsOf probes a possibly-absent index.
func candidateRowsOf(idx donorIndex, row int, deps rfd.Set) ([]int, bool) {
	if idx == nil {
		return nil, false
	}
	return idx.CandidateRows(row, deps)
}

// donorShardStats accumulates per-sub-pool scatter-gather counters
// across runs — the /metrics skew view. The counters are deliberately
// kept out of Stats: Stats must stay byte-identical across shard
// counts, and a per-shard breakdown cannot be.
type donorShardStats struct {
	shards []donorShardCounters
}

type donorShardCounters struct {
	scans, donors, candidates atomic.Int64
}

func newDonorShardStats(n int) *donorShardStats {
	return &donorShardStats{shards: make([]donorShardCounters, n)}
}

// record accumulates one sub-pool sweep. Nil-safe; out-of-range shard
// indices (a pool smaller than the configured shard count) are dropped.
func (s *donorShardStats) record(shard int, donors, candidates int64) {
	if s == nil || shard < 0 || shard >= len(s.shards) {
		return
	}
	c := &s.shards[shard]
	c.scans.Add(1)
	c.donors.Add(donors)
	c.candidates.Add(candidates)
}

// snapshot copies the accumulated counters for /metrics exposition.
func (s *donorShardStats) snapshot() []obs.DonorShardStat {
	if s == nil {
		return nil
	}
	out := make([]obs.DonorShardStat, len(s.shards))
	for i := range s.shards {
		out[i] = obs.DonorShardStat{
			Scans:      s.shards[i].scans.Load(),
			Donors:     s.shards[i].donors.Load(),
			Candidates: s.shards[i].candidates.Load(),
		}
	}
	return out
}

// donorsIn counts the donor rows a band examines: the band size minus
// the query row if it falls inside. Summed over all bands this equals
// the serial sweep's Len()-1.
func donorsIn(lo, hi, row int) int64 {
	n := hi - lo
	if row >= lo && row < hi {
		n--
	}
	return int64(n)
}

// findCandidateTuplesSharded is the scatter-gather donor sweep: the
// flat row space is split into shards contiguous sub-pools, each
// scanned by its own goroutine (own matcher, own kernel arena, the
// usual cancellation checkpoints), and the per-pool candidate lists are
// concatenated in pool order — exactly the serial scan order, so the
// output is bit-identical to findCandidateTuples for any shard count.
// stats and rec receive the per-shard skew counters, the fan-out
// counter, and the gather-merge timing; neither touches Stats.
func findCandidateTuplesSharded(ctx context.Context, m *engine.Matcher, row, attr int,
	deps rfd.Set, shards int, stats *donorShardStats, rec obs.Recorder) []candidate {

	v := m.View()
	ranges := par.Chunks(v.Len(), shards)
	rec.Add(obs.CtrDonorShardFanout, int64(len(ranges)))
	if len(ranges) == 1 {
		out := findCandidateTuples(ctx, m, row, attr, deps)
		stats.record(0, donorsIn(ranges[0][0], ranges[0][1], row), int64(len(out)))
		return out
	}
	parts := make([][]candidate, len(ranges))
	var wg sync.WaitGroup
	for ci, rg := range ranges {
		wg.Add(1)
		go func(ci, lo, hi int) {
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
	mergeStart := obs.Now(rec)
	var out []candidate
	for ci, part := range parts {
		stats.record(ci, donorsIn(ranges[ci][0], ranges[ci][1], row), int64(len(part)))
		out = append(out, part...)
	}
	obs.Since(rec, obs.PhaseDonorMerge, mergeStart)
	return out
}
