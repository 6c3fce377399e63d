package discovery

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/obs"
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
	return adaptiveAttrLimits(rel, quantile, maxPairs, seed, runtime.GOMAXPROCS(0), bandPairs)
}

// adaptiveAttrLimits is AdaptiveAttrLimits with discover's two pipeline
// parameters. The exhaustive scan reads the pattern store discovery
// builds, so its per-attribute distance multiset — sorted before the
// quantile is read — does not depend on either. The sampled path
// (maxPairs set) keeps its single rng sequence and stays serial.
func adaptiveAttrLimits(rel *dataset.Relation, quantile float64, maxPairs int, seed int64, workers, band int) []float64 {
	if quantile <= 0 {
		quantile = 0.25
	}
	if quantile > 1 {
		quantile = 1
	}
	m := rel.Schema().Len()
	n := rel.Len()
	limits := make([]float64, m)
	if n < 2 {
		return limits
	}

	v := engine.Compile(rel)
	samples := make([][]float64, m)
	keep := func(a int, d float64) {
		if !distance.IsMissing(d) && d > 0 {
			samples[a] = append(samples[a], d)
		}
	}
	if total := n * (n - 1) / 2; maxPairs <= 0 || maxPairs >= total {
		st := materialize(context.Background(), v, nil, workers, band, obs.Nop{})
		for a := 0; a < m; a++ {
			for k := 0; k < st.n; k++ {
				keep(a, st.at(k, a))
			}
		}
	} else {
		em := v.Matcher()
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < maxPairs; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				for a := 0; a < m; a++ {
					keep(a, em.Distance(a, i, j))
				}
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
