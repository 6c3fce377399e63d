package discovery

import (
	"context"
	"math"

	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
)

// This file is the bounded-memory partition pipeline behind
// Config.Shards: instead of materializing the whole P x m pattern
// matrix as float64 rows, the flat pair-index space is split into
// Shards contiguous anchor bands, each band is materialized into one
// reusable transient float64 slab, and the slab is folded into a
// lossless compact column store before the next band starts. Peak
// pattern memory is then one band's slab plus the compact store —
// on string workloads roughly (8/S + 1)/8 of the unsharded slab —
// instead of the full 8-byte matrix.
//
// Byte-identity across shard counts comes for free from losslessness:
// the lattice search consumes pattern *values* only (comparisons,
// sort.Slice permutations, greedy folds), so a store that returns the
// exact float64 the Matcher produced — which the encodings below
// guarantee — yields bit-identical rules, supports, and trace events
// for every shard count, including the unsharded flat-slab path.

// patStore is the pattern matrix the lattice search reads: n patterns
// of arity m behind a value-exact accessor. Exactly one backing is set:
// rows (the legacy flat slab, Shards <= 1) or cols (the compact
// column-major encoding, Shards >= 2).
type patStore struct {
	n    int
	m    int
	rows []distance.Pattern
	cols []patCol
	// peakBytes is the run's peak pattern-storage footprint: the whole
	// slab when row-backed, the largest transient shard slab plus the
	// final compact store when column-backed.
	peakBytes int64
}

// flatStore wraps the legacy flat slab unchanged.
func flatStore(patterns []distance.Pattern, m int) *patStore {
	return &patStore{
		n:         len(patterns),
		m:         m,
		rows:      patterns,
		peakBytes: int64(len(patterns)) * int64(m) * 8,
	}
}

// at returns pattern k's distance on attribute a — bit-for-bit the
// value the Matcher materialized (missing stays missing; NaN payloads
// are never observed, only distance.IsMissing and comparisons).
func (s *patStore) at(k, a int) float64 {
	if s.rows != nil {
		return s.rows[k][a]
	}
	return s.cols[a].get(k)
}

// storeBytes is the compact store's current payload size.
func (s *patStore) storeBytes() int64 {
	var total int64
	for i := range s.cols {
		total += s.cols[i].bytes()
	}
	return total
}

// Column encodings, narrowest first. Promotion is per column and
// one-way: a value the current encoding cannot hold exactly re-encodes
// the column one step wider. String edit distances (small non-negative
// integers) stay in one byte; absolute numeric differences that are
// float32-exact take four; everything else falls back to the full
// float64.
const (
	encU8  uint8 = iota // integers 0..254; 255 is the missing sentinel
	encF32              // float64-exact float32; NaN is missing
	encF64              // lossless fallback; NaN is missing
)

// missingU8 is the encU8 missing-value sentinel; a legitimate distance
// of 255 promotes the column to encF32 instead.
const missingU8 = 255

// patCol is one attribute's column in the compact store.
type patCol struct {
	enc uint8
	u8  []uint8
	f32 []float32
	f64 []float64
}

// get decodes entry k back to the exact materialized float64.
func (c *patCol) get(k int) float64 {
	switch c.enc {
	case encU8:
		b := c.u8[k]
		if b == missingU8 {
			return distance.Missing
		}
		return float64(b)
	case encF32:
		return float64(c.f32[k])
	default:
		return c.f64[k]
	}
}

// push appends one value, promoting the column when the current
// encoding cannot represent it exactly.
func (c *patCol) push(v float64) {
	for {
		switch c.enc {
		case encU8:
			if distance.IsMissing(v) {
				c.u8 = append(c.u8, missingU8)
				return
			}
			if v >= 0 && v < missingU8 && v == math.Trunc(v) {
				c.u8 = append(c.u8, uint8(v))
				return
			}
		case encF32:
			if f := float32(v); distance.IsMissing(v) || float64(f) == v {
				c.f32 = append(c.f32, f)
				return
			}
		default:
			c.f64 = append(c.f64, v)
			return
		}
		c.promote()
	}
}

// promote re-encodes the column one step wider, preserving every value
// (0..254 integers are float32-exact; the missing sentinel becomes NaN).
func (c *patCol) promote() {
	switch c.enc {
	case encU8:
		c.f32 = make([]float32, len(c.u8))
		for i, b := range c.u8 {
			if b == missingU8 {
				c.f32[i] = float32(math.NaN())
			} else {
				c.f32[i] = float32(b)
			}
		}
		c.u8, c.enc = nil, encF32
	case encF32:
		c.f64 = make([]float64, len(c.f32))
		for i, f := range c.f32 {
			c.f64[i] = float64(f)
		}
		c.f32, c.enc = nil, encF64
	}
}

// bytes is the column's current payload size.
func (c *patCol) bytes() int64 {
	switch c.enc {
	case encU8:
		return int64(len(c.u8))
	case encF32:
		return int64(len(c.f32)) * 4
	default:
		return int64(len(c.f64)) * 8
	}
}

// appendSlab folds rows materialized patterns from the row-major slab
// into the compact columns.
func (s *patStore) appendSlab(slab []float64, rows int) {
	for a := 0; a < s.m; a++ {
		col := &s.cols[a]
		for k := 0; k < rows; k++ {
			col.push(slab[k*s.m+a])
		}
	}
}

// shardedPatterns is the Shards >= 2 materialization pipeline: the flat
// pair-index space [0, P) — all pairs, or the serial sampler's pair
// list — is split into shards contiguous anchor bands; each band fills
// one reusable transient slab (worker-chunked, positional writes, the
// usual cancellation checkpoints) and is then encoded into the compact
// store before the next band is touched. Pattern order is the flat
// pair order, identical to the unsharded slab. Returns nil when the
// context expired mid-band; the partial store must never be searched.
func shardedPatterns(ctx context.Context, v *engine.View, cfg *Config, shards, workers int, rec obs.Recorder) *patStore {
	n := v.Len()
	m := v.Arity()
	total := n * (n - 1) / 2
	var pairs [][2]int
	if cfg.MaxPairs > 0 && cfg.MaxPairs < total {
		pairs = samplePairs(n, cfg.MaxPairs, cfg.Seed)
		total = len(pairs)
	}
	st := &patStore{n: total, m: m, cols: make([]patCol, m)}
	if total == 0 {
		return st
	}
	bands := par.Chunks(total, shards)
	maxBand := 0
	for _, b := range bands {
		if l := b[1] - b[0]; l > maxBand {
			maxBand = l
		}
	}
	slab := make([]float64, maxBand*m)
	for _, band := range bands {
		lo, hi := band[0], band[1]
		chunks := runChunks(workers, hi-lo, func(_, clo, chi int) {
			wm := v.Matcher() // per-chunk kernel arena
			if pairs != nil {
				for k := clo; k < chi; k++ {
					if (k-clo)%engine.CheckEvery == 0 && ctx.Err() != nil {
						return
					}
					p := pairs[lo+k]
					wm.PatternInto(slab[k*m:(k+1)*m], p[0], p[1])
				}
				return
			}
			i, j := pairAt(n, lo+clo)
			for k := clo; k < chi; k++ {
				if (k-clo)%engine.CheckEvery == 0 && ctx.Err() != nil {
					return
				}
				wm.PatternInto(slab[k*m:(k+1)*m], i, j)
				j++
				if j == n {
					i++
					j = i + 1
				}
			}
		})
		rec.Add(obs.CtrDiscoveryPatternChunks, int64(chunks))
		rec.Add(obs.CtrDiscoveryShardSlabBytes, int64(hi-lo)*int64(m)*8)
		if ctx.Err() != nil {
			// The band may hold unmaterialized rows; never encode it.
			return nil
		}
		st.appendSlab(slab, hi-lo)
	}
	// The store only grows, so the peak is the last band's slab
	// coexisting with the finished store.
	st.peakBytes = int64(maxBand)*int64(m)*8 + st.storeBytes()
	return st
}
