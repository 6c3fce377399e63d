package discovery

import (
	"context"
	"math"
	"testing"

	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TestPatColEncoding: the per-column adaptive encoding is lossless for
// every value class, including the u8 sentinel boundary and the
// promotion cascades.
func TestPatColEncoding(t *testing.T) {
	check := func(t *testing.T, vals []float64, wantEnc uint8) {
		t.Helper()
		c := patCol{u8: make([]uint8, len(vals))}
		for k, v := range vals {
			c.set(k, v)
		}
		if c.enc != wantEnc {
			t.Fatalf("enc = %d, want %d", c.enc, wantEnc)
		}
		for i, v := range vals {
			got := c.get(i)
			if distance.IsMissing(v) {
				if !distance.IsMissing(got) {
					t.Fatalf("entry %d = %v, want missing", i, got)
				}
				continue
			}
			if math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("entry %d = %v (bits %x), want %v (bits %x)",
					i, got, math.Float64bits(got), v, math.Float64bits(v))
			}
		}
	}
	t.Run("u8", func(t *testing.T) {
		check(t, []float64{0, 1, 254, distance.Missing, 7}, encU8)
	})
	t.Run("sentinel-value-promotes", func(t *testing.T) {
		// A legitimate distance of 255 cannot share the missing sentinel.
		check(t, []float64{3, distance.Missing, 255}, encF32)
	})
	t.Run("fraction-promotes", func(t *testing.T) {
		check(t, []float64{2, 0.5, distance.Missing}, encF32)
	})
	t.Run("negative-promotes", func(t *testing.T) {
		check(t, []float64{1, -2}, encF32)
	})
	t.Run("f64-fallback", func(t *testing.T) {
		// 0.1 is not float32-exact; the column lands on the full float64.
		check(t, []float64{4, 0.5, 0.1, distance.Missing, 1e300}, encF64)
	})
	t.Run("straight-to-f64", func(t *testing.T) {
		check(t, []float64{0.1}, encF64)
	})
}

// TestPatStoreMatchesFlat: every cell of the compact store is bit for
// bit the pattern Matcher.PatternInto produces for that pair (or both
// are missing), for several band sizes and worker counts and for both
// the exhaustive and the sampled pair lists.
func TestPatStoreMatchesFlat(t *testing.T) {
	rel := table4Relation(t)
	v := engine.Compile(rel)
	n, m := v.Len(), v.Arity()
	ref := v.Matcher()
	want := distance.NewPattern(m)
	for _, maxPairs := range []int{0, 700} {
		// sampled is what materialize takes; pairs what it must produce.
		var sampled, pairs [][2]int
		if maxPairs > 0 {
			sampled = samplePairs(n, maxPairs, 7)
			pairs = sampled
		} else {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		for _, band := range []int{1, 7, 64, bandPairs, math.MaxInt32} {
			for _, workers := range []int{1, 3} {
				st := materialize(context.Background(), v, sampled, workers, band, obs.Nop{})
				if st == nil || st.n != len(pairs) {
					t.Fatalf("maxPairs=%d band=%d: store %v, want %d patterns", maxPairs, band, st, len(pairs))
				}
				for k, p := range pairs {
					ref.PatternInto(want, p[0], p[1])
					for a := 0; a < m; a++ {
						w, got := want[a], st.at(k, a)
						same := math.Float64bits(w) == math.Float64bits(got) ||
							(distance.IsMissing(w) && distance.IsMissing(got))
						if !same {
							t.Fatalf("maxPairs=%d band=%d workers=%d pattern %d attr %d = %v, want %v",
								maxPairs, band, workers, k, a, got, w)
						}
					}
				}
			}
		}
	}
}

// TestShardedPatternsPeakBytes: the acceptance bound — the peak pattern
// footprint of the banded pipeline (the band slab plus the compact
// store) is at most half of the float64 matrix on the string-heavy
// Restaurant workload.
func TestShardedPatternsPeakBytes(t *testing.T) {
	rel := table4Relation(t)
	v := engine.Compile(rel)
	st := materialize(context.Background(), v, nil, 2, bandPairs, obs.Nop{})
	if st == nil {
		t.Fatal("materialization returned nil without cancellation")
	}
	if matrix := int64(st.n) * int64(v.Arity()) * 8; st.peakBytes*2 > matrix {
		t.Errorf("peak %d bytes, want <= half of the %d-byte matrix", st.peakBytes, matrix)
	}
}

// TestDiscoverShardCounters: a run reports its fan-out — the workers and
// the chunks its bands were cut into — and the peak pattern footprint of
// the banded store through the recorder.
func TestDiscoverShardCounters(t *testing.T) {
	const workers = 4
	rel := table4Relation(t)
	st := materialize(context.Background(), engine.Compile(rel), nil, workers, bandPairs, obs.Nop{})
	m := obs.NewMetrics()
	if _, err := discover(context.Background(), engine.Compile(rel), Config{MaxThreshold: 6, Recorder: m}, workers, bandPairs); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter(obs.CtrDiscoveryWorkers); got != workers {
		t.Errorf("discovery_workers = %d, want %d", got, workers)
	}
	// Every band holds hundreds of pairs, so each is cut into one chunk
	// per worker.
	bands := (st.n + bandPairs - 1) / bandPairs
	if got := m.Counter(obs.CtrDiscoveryPatternChunks); got != int64(bands*workers) {
		t.Errorf("discovery_pattern_chunks = %d, want %d (%d bands x %d workers)", got, bands*workers, bands, workers)
	}
	if got := m.Counter(obs.CtrDiscoveryPatternPeakBytes); got <= 0 || got != st.peakBytes {
		t.Errorf("discovery_pattern_peak_bytes = %d, want the store's %d", got, st.peakBytes)
	}
}

// TestShardedPatternsCancel: a context expiring mid-materialization
// yields nil — the partial store must never reach the search.
func TestShardedPatternsCancel(t *testing.T) {
	rel := table4Relation(t)
	v := engine.Compile(rel)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st := materialize(ctx, v, nil, 2, bandPairs, obs.Nop{}); st != nil {
		t.Errorf("cancelled materialization returned a store with %d patterns", st.n)
	}
}
