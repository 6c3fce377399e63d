// Package experiments regenerates every table and figure of the paper's
// evaluation section (Sec. 6): Table 3 (dataset statistics), Figure 2
// (RENUVER's P/R/F1 across RHS-threshold limits and missing rates),
// Figure 3 (the comparative evaluation against Derand, Holoclean and
// kNN), Table 4 (the Restaurant stress test across missing rates 5-40%),
// and Table 5 (the Physician stress test across tuple counts), plus the
// ablation studies and complexity-scaling checks DESIGN.md adds.
//
// Every experiment is parameterized by a Scale so the same code drives
// both the paper-sized runs (cmd/experiments -scale full) and the
// CI-sized ones (benchmarks, -scale quick).
package experiments

import (
	"time"

	"repro/internal/eval"
)

// Scale sizes one experiment campaign.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	// Sizes gives per-dataset tuple counts.
	Sizes map[string]int
	// PhysicianSlices are the Table 5 tuple counts, ascending.
	PhysicianSlices []int
	// Rates are the Figure 2/3 missing rates.
	Rates []float64
	// StressRates are the Table 4 missing rates.
	StressRates []float64
	// Variants is how many injected datasets are averaged per rate
	// (the paper uses five).
	Variants int
	// Thresholds are the RFDc discovery threshold limits (the paper's
	// {3, 6, 9, 12, 15}).
	Thresholds []float64
	// ComparisonThreshold is the threshold limit used for Figure 3 and
	// the stress tables (the paper uses 15 for Restaurant/Glass).
	ComparisonThreshold float64
	// DiscoveryMaxPairs caps pair sampling during discovery (0 = exact).
	DiscoveryMaxPairs int
	// Budget bounds each stress-table run (scaled stand-in for the
	// paper's 48 h / 30 GB limits).
	Budget eval.Budget
	// Seed drives all derived randomness.
	Seed int64
}

// FullScale is the paper-sized campaign: Table 3 dataset sizes, all five
// thresholds, rates 1-5% with five variants each. Expect hours of wall
// clock, like the original evaluation.
func FullScale() Scale {
	return Scale{
		Name: "full",
		Sizes: map[string]int{
			"restaurant": 864, "cars": 406, "glass": 214, "bridges": 108,
			"physician": 10359,
		},
		PhysicianSlices:     []int{104, 208, 1036, 2072, 10359},
		Rates:               []float64{0.01, 0.02, 0.03, 0.04, 0.05},
		StressRates:         []float64{0.05, 0.10, 0.20, 0.30, 0.40},
		Variants:            5,
		Thresholds:          []float64{3, 6, 9, 12, 15},
		ComparisonThreshold: 15,
		DiscoveryMaxPairs:   200_000,
		Budget:              eval.Budget{TimeLimit: 30 * time.Minute, MemLimit: 8 << 30},
		Seed:                2022,
	}
}

// QuickScale is the CI-sized campaign driving the same code paths in
// minutes: smaller instances, three thresholds, two variants, and tight
// stress budgets so the TL/ML markers actually appear.
func QuickScale() Scale {
	return Scale{
		Name: "quick",
		Sizes: map[string]int{
			"restaurant": 240, "cars": 200, "glass": 120, "bridges": 108,
			"physician": 1200,
		},
		PhysicianSlices:     []int{60, 120, 360, 720, 1200},
		Rates:               []float64{0.01, 0.03, 0.05},
		StressRates:         []float64{0.05, 0.20, 0.40},
		Variants:            2,
		Thresholds:          []float64{3, 9, 15},
		ComparisonThreshold: 15,
		DiscoveryMaxPairs:   30_000,
		Budget:              eval.Budget{TimeLimit: 2 * time.Minute, MemLimit: 4 << 30},
		Seed:                2022,
	}
}

// BenchScale is the smallest campaign, sized for `go test -bench`: it
// exercises every experiment code path in seconds per iteration.
func BenchScale() Scale {
	return Scale{
		Name: "bench",
		Sizes: map[string]int{
			"restaurant": 120, "cars": 100, "glass": 80, "bridges": 60,
			"physician": 240,
		},
		PhysicianSlices:     []int{30, 60, 120, 240},
		Rates:               []float64{0.02, 0.05},
		StressRates:         []float64{0.05, 0.20},
		Variants:            1,
		Thresholds:          []float64{6, 15},
		ComparisonThreshold: 15,
		DiscoveryMaxPairs:   8_000,
		Budget:              eval.Budget{TimeLimit: time.Minute, MemLimit: 4 << 30},
		Seed:                2022,
	}
}

// ScaleByName resolves "full", "quick" or "bench".
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "full":
		return FullScale(), true
	case "quick":
		return QuickScale(), true
	case "bench":
		return BenchScale(), true
	default:
		return Scale{}, false
	}
}
