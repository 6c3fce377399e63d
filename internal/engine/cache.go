package engine

import (
	"sync"
	"sync/atomic"
)

// numShards bounds lock contention: pairwise lookups from discovery
// workers and concurrent runs hash across independent shards.
const numShards = 64

// cacheKey identifies one memoized pair: the attribute and the two
// interned value ids in canonical (lo <= hi) order, so (a, b) and
// (b, a) share one entry.
type cacheKey struct {
	attr, lo, hi int32
}

// cacheShard holds one shard's entries in two tiers:
//
//   - frozen is an immutable map published through an atomic pointer.
//     The read path loads it with a single atomic load and probes it
//     with no lock at all — under the ~92% hit rates of the string
//     workloads, almost every lookup ends here.
//   - overflow collects fresh entries under a mutex. When it grows past
//     a fraction of the frozen tier, the writer rebuilds frozen as
//     (frozen ∪ overflow) and publishes the new map; the geometric
//     merge threshold keeps the amortized per-insert copy cost
//     constant.
//
// A reader that misses frozen takes the mutex to probe overflow — but a
// frozen miss almost always precedes a Levenshtein computation, whose
// cost dwarfs the lock.
type cacheShard struct {
	frozen atomic.Pointer[map[cacheKey]int32]
	mu     sync.Mutex
	over   map[cacheKey]int32
	hits   atomic.Int64
	misses atomic.Int64
	merges atomic.Int64
	// pad spaces shards a cache line apart so the per-shard counters
	// and mutexes of neighbors never false-share.
	_ [16]byte
}

// mergeFloor is the minimum overflow size that triggers a merge into
// the frozen tier; below it, rebuilding maps would dominate.
const mergeFloor = 64

// distCache memoizes exact string edit distances per (attr, value
// pair). Only strings are cached: numeric and boolean distances are a
// subtraction, cheaper than any lookup. Hit and miss counts are kept
// per shard and summed on demand, so the hot read path never contends
// on a shared counter.
type distCache struct {
	shards [numShards]cacheShard
}

func newDistCache() *distCache { return &distCache{} }

func (c *distCache) shardOf(k cacheKey) *cacheShard {
	h := uint32(k.attr)*0x9E3779B1 ^ uint32(k.lo)*0x85EBCA6B ^ uint32(k.hi)*0xC2B2AE35
	return &c.shards[h%numShards]
}

// get returns the memoized distance for the pair, counting a hit when
// present. The ids may be passed in either order. The fast path — the
// pair is in the frozen tier — is one atomic load plus a map probe,
// with no lock and no shared-counter contention.
func (c *distCache) get(attr int, a, b int32) (int32, bool) {
	if a > b {
		a, b = b, a
	}
	k := cacheKey{attr: int32(attr), lo: a, hi: b}
	sh := c.shardOf(k)
	if m := sh.frozen.Load(); m != nil {
		if d, ok := (*m)[k]; ok {
			sh.hits.Add(1)
			return d, true
		}
	}
	sh.mu.Lock()
	d, ok := sh.over[k]
	sh.mu.Unlock()
	if ok {
		sh.hits.Add(1)
	}
	return d, ok
}

// put memoizes a freshly computed distance, counting a miss. Concurrent
// writers of the same key store the same value (the distance function
// is pure), so last-write-wins is harmless. When the overflow tier
// outgrows a quarter of the frozen tier it is folded in and a new
// frozen map is published; readers switch to it on their next atomic
// load.
func (c *distCache) put(attr int, a, b int32, d int32) {
	if a > b {
		a, b = b, a
	}
	k := cacheKey{attr: int32(attr), lo: a, hi: b}
	sh := c.shardOf(k)
	sh.mu.Lock()
	if sh.over == nil {
		sh.over = make(map[cacheKey]int32)
	}
	sh.over[k] = d
	frozen := sh.frozen.Load()
	frozenLen := 0
	if frozen != nil {
		frozenLen = len(*frozen)
	}
	if n := len(sh.over); n >= mergeFloor && n*4 >= frozenLen {
		merged := make(map[cacheKey]int32, frozenLen+n)
		if frozen != nil {
			for fk, fv := range *frozen {
				merged[fk] = fv
			}
		}
		for ok_, ov := range sh.over {
			merged[ok_] = ov
		}
		sh.frozen.Store(&merged)
		sh.over = make(map[cacheKey]int32)
		sh.merges.Add(1)
	}
	sh.mu.Unlock()
	sh.misses.Add(1)
}

// withoutAttrs builds a NEW cache carrying every memoized entry except
// those keyed by a dropped attribute, returning it and the number of
// shards that held at least one dropped entry. Copy-on-invalidate is
// what makes interner compaction safe under epochs: compaction remaps
// an attribute's interned ids, so the successor epoch must not share a
// cache instance with its predecessors — a pinned reader of an old
// epoch would keep inserting entries keyed by old ids that collide
// with the remapped ones. Old epochs keep the old instance; shards the
// drop never touched share their frozen map pointer with the new cache
// (safe: published frozen maps are immutable — merges always build new
// maps), so the copy is proportional to the invalidated shards only.
func (c *distCache) withoutAttrs(drop []bool) (*distCache, int) {
	out := newDistCache()
	invalidated := 0
	for i := range c.shards {
		sh := &c.shards[i]
		frozen := sh.frozen.Load()
		sh.mu.Lock()
		var over map[cacheKey]int32
		if len(sh.over) > 0 {
			over = make(map[cacheKey]int32, len(sh.over))
			for k, v := range sh.over {
				over[k] = v
			}
		}
		sh.mu.Unlock()
		touched := false
		if frozen != nil {
			for k := range *frozen {
				if drop[k.attr] {
					touched = true
					break
				}
			}
		}
		if !touched {
			for k := range over {
				if drop[k.attr] {
					touched = true
					break
				}
			}
		}
		switch {
		case touched:
			invalidated++
			kept := make(map[cacheKey]int32)
			if frozen != nil {
				for k, v := range *frozen {
					if !drop[k.attr] {
						kept[k] = v
					}
				}
			}
			for k, v := range over {
				if !drop[k.attr] {
					kept[k] = v
				}
			}
			if len(kept) > 0 {
				out.shards[i].frozen.Store(&kept)
			}
		case over == nil:
			if frozen != nil {
				out.shards[i].frozen.Store(frozen)
			}
		default:
			merged := over
			if frozen != nil {
				merged = make(map[cacheKey]int32, len(*frozen)+len(over))
				for k, v := range *frozen {
					merged[k] = v
				}
				for k, v := range over {
					merged[k] = v
				}
			}
			out.shards[i].frozen.Store(&merged)
		}
	}
	return out, invalidated
}

func (c *distCache) stats() (hits, misses int64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits, misses
}

// CacheShardStat is one shard's counters: lookups answered, lookups
// computed, and overflow-tier merges into the frozen tier. The obs
// package mirrors this struct; engine stays below obs in the dependency
// order, so the two cannot share a definition.
type CacheShardStat struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Merges int64 `json:"merges"`
}

// shardStats snapshots every shard's counters, in shard order. The
// per-shard view exposes what the summed stats hide: hash skew (one hot
// shard serializing its neighbors) and merge churn.
func (c *distCache) shardStats() []CacheShardStat {
	out := make([]CacheShardStat, numShards)
	for i := range c.shards {
		out[i] = CacheShardStat{
			Hits:   c.shards[i].hits.Load(),
			Misses: c.shards[i].misses.Load(),
			Merges: c.shards[i].merges.Load(),
		}
	}
	return out
}
