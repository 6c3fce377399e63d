package discovery

import (
	"math"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/par"
)

// AdaptiveAttrLimits is the paper's threshold-bounding extension (Sec. 7:
// "we would like to evaluate RENUVER with RFDcs whose thresholds have
// associated an upper bound dependent from attribute domains and value
// distributions"). It returns one threshold cap per attribute: the
// q-quantile of the attribute's non-zero pairwise distances, floored to
// the integer grid the discovery search uses. An attribute whose values
// never differ (or never co-occur) gets cap 0.
//
// Plugged into Config.AttrLimits, the caps keep a wide-domain attribute
// (say, free-text names with typical distances of 15+) from being given
// the same budget as a tight numeric code, which is exactly the failure
// mode the paper observed on Glass ("the RFDc threshold values do not
// capture the correlation among data").
func AdaptiveAttrLimits(rel *dataset.Relation, quantile float64, maxPairs int, seed int64) []float64 {
	return AdaptiveAttrLimitsWorkers(rel, quantile, maxPairs, seed, 1)
}

// AdaptiveAttrLimitsWorkers is AdaptiveAttrLimits with the exhaustive
// pair scan chunked across workers (0 means runtime.NumCPU()). The
// per-attribute distance multiset is identical however it is collected
// and gets sorted before the quantile is read, so the caps are
// worker-count independent. The sampled path (maxPairs set) keeps its
// single rng sequence and stays serial.
func AdaptiveAttrLimitsWorkers(rel *dataset.Relation, quantile float64, maxPairs int, seed int64, workers int) []float64 {
	if quantile <= 0 {
		quantile = 0.25
	}
	if quantile > 1 {
		quantile = 1
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	m := rel.Schema().Len()
	n := rel.Len()
	limits := make([]float64, m)
	if n < 2 {
		return limits
	}

	v := engine.Compile(rel)
	recordInto := func(em *engine.Matcher, samples [][]float64, i, j int) {
		for a := 0; a < m; a++ {
			d := em.Distance(a, i, j)
			if !distance.IsMissing(d) && d > 0 {
				samples[a] = append(samples[a], d)
			}
		}
	}

	var samples [][]float64
	total := n * (n - 1) / 2
	if maxPairs <= 0 || maxPairs >= total {
		// Chunk the flat pair-index range; each worker collects into its
		// own sample set, merged in chunk order below.
		ranges := par.Chunks(total, workers)
		parts := make([][][]float64, len(ranges))
		runChunks(workers, total, func(ci, lo, hi int) {
			em := v.Matcher() // per-chunk kernel arena
			local := make([][]float64, m)
			i, j := pairAt(n, lo)
			for k := lo; k < hi; k++ {
				recordInto(em, local, i, j)
				j++
				if j == n {
					i++
					j = i + 1
				}
			}
			parts[ci] = local
		})
		samples = make([][]float64, m)
		for _, local := range parts {
			for a := 0; a < m; a++ {
				samples[a] = append(samples[a], local[a]...)
			}
		}
	} else {
		samples = make([][]float64, m)
		em := v.Matcher()
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < maxPairs; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				recordInto(em, samples, i, j)
			}
		}
	}

	for a := 0; a < m; a++ {
		if len(samples[a]) == 0 {
			continue
		}
		sort.Float64s(samples[a])
		idx := int(quantile * float64(len(samples[a])-1))
		limits[a] = math.Floor(samples[a][idx])
	}
	return limits
}
