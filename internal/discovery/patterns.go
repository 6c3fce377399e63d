package discovery

import (
	"context"
	"math"

	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/obs"
)

// This file is pattern materialization: instead of holding the whole
// P x m pattern matrix as float64 rows, the pair space is cut into bands
// of bandPairs pairs, each band is materialized into one reused
// transient float64 slab, and the slab is folded into a lossless compact
// column store before the next band starts. Peak pattern memory is then
// one band's slab plus the compact store — on string workloads about an
// eighth of the 8-byte matrix.
//
// The store returns the exact float64 the Matcher produced, and the
// lattice search consumes pattern values only (comparisons, sort.Slice
// permutations, greedy folds), so rules, supports and trace events do
// not depend on the band size or the worker count.

// bandPairs is the number of tuple pairs one band materializes. Bands of
// 512 to 16,384 pairs ran equally fast on the Cars and Restaurant inputs
// and on the discovery micro-benchmarks (EXPERIMENTS "Discovery knobs,
// measured before deletion"); 2,048 pairs keep the transient slab of the
// 5-attribute strings fixture at 80 KiB, so its peak stays under half of
// its 280 KiB float64 matrix.
const bandPairs = 2048

// patStore is the pattern matrix the lattice search reads: n patterns
// of arity m, one compact column per attribute behind a value-exact
// accessor.
type patStore struct {
	n    int
	cols []patCol
	// peakBytes is the run's peak pattern-storage footprint: the band
	// slab plus the finished compact store.
	peakBytes int64
}

// at returns pattern k's distance on attribute a — bit-for-bit the
// value the Matcher materialized (missing stays missing; NaN payloads
// are never observed, only distance.IsMissing and comparisons).
func (s *patStore) at(k, a int) float64 { return s.cols[a].get(k) }

// storeBytes is the compact store's payload size.
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

// patCol is one attribute's column in the compact store. It is sized to
// the run's pattern count up front and written in place.
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
		if b := c.u8[k]; b != missingU8 {
			return float64(b)
		}
		return distance.Missing
	case encF32:
		return float64(c.f32[k])
	}
	return c.f64[k]
}

// set writes entry k, promoting the column when the current encoding
// cannot represent the value exactly.
func (c *patCol) set(k int, v float64) {
	for {
		switch c.enc {
		case encU8:
			if v >= 0 && v < missingU8 && v == math.Trunc(v) {
				c.u8[k] = uint8(v)
				return
			}
			if distance.IsMissing(v) {
				c.u8[k] = missingU8
				return
			}
		case encF32:
			if f := float32(v); float64(f) == v || distance.IsMissing(v) {
				c.f32[k] = f
				return
			}
		default:
			c.f64[k] = v
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

// bytes is the column's payload size.
func (c *patCol) bytes() int64 {
	switch c.enc {
	case encU8:
		return int64(len(c.u8))
	case encF32:
		return int64(len(c.f32)) * 4
	}
	return int64(len(c.f64)) * 8
}

// materialize builds the pattern store of the pairs discovery reads —
// every pair of v in row-major order, or the sampler's list when pairs
// is non-nil — band pairs at a time. Each band is filled by up to
// workers goroutines with positional writes into the reused slab, one
// matcher per worker for the whole run, and then encoded into the store
// before the next band starts, so the pattern order is the pair order
// whatever the worker count and band size. It returns nil when the
// context expired mid-band; a partial store must never be searched.
func materialize(ctx context.Context, v *engine.View, pairs [][2]int, workers, band int, rec obs.Recorder) *patStore {
	n, m := v.Len(), v.Arity()
	total := n * (n - 1) / 2
	if pairs != nil {
		total = len(pairs)
	}
	st := &patStore{n: total, cols: make([]patCol, m)}
	if total == 0 {
		return st
	}
	for a := range st.cols {
		st.cols[a].u8 = make([]uint8, total)
	}
	band = min(band, total)
	slab := make([]float64, band*m)
	matchers := make([]*engine.Matcher, workers)
	// fill materializes pairs [lo+clo, lo+chi) of the current band into
	// slab rows [clo, chi); one closure serves every band.
	var lo int
	fill := func(w, clo, chi int) {
		if matchers[w] == nil {
			matchers[w] = v.Matcher()
		}
		wm := matchers[w]
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
			if j++; j == n {
				i++
				j = i + 1
			}
		}
	}
	chunks := 0
	for ; lo < total; lo += band {
		hi := min(lo+band, total)
		chunks += runChunks(workers, hi-lo, fill)
		if ctx.Err() != nil {
			// The band may hold unmaterialized rows; never encode it.
			return nil
		}
		for a := range st.cols {
			c := &st.cols[a]
			for k, x := lo, a; k < hi; k, x = k+1, x+m {
				c.set(k, slab[x])
			}
		}
	}
	rec.Add(obs.CtrDiscoveryPatternChunks, int64(chunks))
	st.peakBytes = int64(len(slab))*8 + st.storeBytes()
	return st
}
