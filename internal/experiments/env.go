package experiments

import (
	"fmt"
	"sync"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/dc"
	"repro/internal/discovery"
	"repro/internal/eval"
	"repro/internal/rfd"
)

// Env provisions datasets, discovered RFDc sets, denial constraints and
// validators for one campaign, caching everything per (dataset,
// threshold) so repeated experiments do not re-pay discovery.
type Env struct {
	Scale Scale

	mu     sync.Mutex
	rels   map[string]*dataset.Relation
	sigmas map[string]rfd.Set
	dcs    map[string][]*dc.DC
}

// NewEnv returns an empty environment for the scale.
func NewEnv(scale Scale) *Env {
	return &Env{
		Scale:  scale,
		rels:   map[string]*dataset.Relation{},
		sigmas: map[string]rfd.Set{},
		dcs:    map[string][]*dc.DC{},
	}
}

// Dataset returns (and caches) the synthetic dataset at the campaign
// size.
func (e *Env) Dataset(name string) (*dataset.Relation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rel, ok := e.rels[name]; ok {
		return rel, nil
	}
	n, ok := e.Scale.Sizes[name]
	if !ok {
		return nil, fmt.Errorf("experiments: no size configured for %q", name)
	}
	rel, err := datagen.ByName(name, n, e.Scale.Seed)
	if err != nil {
		return nil, err
	}
	e.rels[name] = rel
	return rel, nil
}

// DatasetSized returns an uncached dataset at an explicit size (the
// Table 5 tuple sweep).
func (e *Env) DatasetSized(name string, n int) (*dataset.Relation, error) {
	return datagen.ByName(name, n, e.Scale.Seed)
}

// Sigma returns (and caches) the RFDcs discovered on the dataset under
// the threshold limit.
func (e *Env) Sigma(name string, threshold float64) (rfd.Set, error) {
	key := fmt.Sprintf("%s@%g", name, threshold)
	e.mu.Lock()
	if s, ok := e.sigmas[key]; ok {
		e.mu.Unlock()
		return s, nil
	}
	e.mu.Unlock()
	rel, err := e.Dataset(name)
	if err != nil {
		return nil, err
	}
	s, err := e.SigmaFor(rel, threshold)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.sigmas[key] = s
	e.mu.Unlock()
	return s, nil
}

// SigmaFor discovers RFDcs on an arbitrary relation under the campaign's
// discovery settings (no caching).
func (e *Env) SigmaFor(rel *dataset.Relation, threshold float64) (rfd.Set, error) {
	return discovery.Discover(rel, discovery.Config{
		MaxThreshold: threshold,
		MaxPairs:     e.Scale.DiscoveryMaxPairs,
		Seed:         e.Scale.Seed,
	})
}

// DCs returns (and caches) the denial constraints discovered on the
// dataset for the Holoclean baseline.
func (e *Env) DCs(name string) ([]*dc.DC, error) {
	e.mu.Lock()
	if d, ok := e.dcs[name]; ok {
		e.mu.Unlock()
		return d, nil
	}
	e.mu.Unlock()
	rel, err := e.Dataset(name)
	if err != nil {
		return nil, err
	}
	d := e.DCsFor(rel)
	e.mu.Lock()
	e.dcs[name] = d
	e.mu.Unlock()
	return d, nil
}

// DCsFor discovers denial constraints on an arbitrary relation.
func (e *Env) DCsFor(rel *dataset.Relation) []*dc.DC {
	return dc.Discover(rel, dc.DiscoverConfig{
		MaxViolationRate: 0.01,
		MinEvidence:      2,
		MaxPairs:         e.Scale.DiscoveryMaxPairs,
		Seed:             e.Scale.Seed,
	})
}

// Rules returns the paper-style rule-based validator for the dataset.
// The rule definitions mirror the originals' semantics: phone numbers
// match on digits regardless of separators, city aliases form value
// sets, and numeric attributes admit the delta the paper quotes for
// Horsepower (±25) scaled to each domain.
func Rules(name string) *eval.Validator {
	v := eval.NewValidator()
	switch name {
	case "restaurant":
		mustRegex(v, "Phone", "[0-9]")
		v.AddValueSet("City", "Los Angeles", "LA", "L.A.")
		v.AddValueSet("City", "New York", "New York City", "NY")
		v.AddValueSet("City", "Hollywood", "W. Hollywood")
		v.AddValueSet("City", "Santa Monica", "S. Monica")
		v.AddValueSet("Type", "French", "French (new)")
		v.AddValueSet("Type", "American", "American (new)")
	case "cars":
		mustDelta(v, "Mpg", 3)
		mustDelta(v, "Displacement", 30)
		mustDelta(v, "Horsepower", 25) // the paper's own example
		mustDelta(v, "Weight", 250)
		mustDelta(v, "Acceleration", 2)
		mustDelta(v, "ModelYear", 1)
	case "glass":
		mustDelta(v, "RI", 0.003)
		mustDelta(v, "Na", 0.6)
		mustDelta(v, "Mg", 0.5)
		mustDelta(v, "Al", 0.3)
		mustDelta(v, "Si", 0.8)
		mustDelta(v, "K", 0.2)
		mustDelta(v, "Ca", 0.6)
		mustDelta(v, "Ba", 0.3)
		mustDelta(v, "Fe", 0.1)
	case "bridges":
		mustDelta(v, "Erected", 10)
		mustDelta(v, "Length", 400)
		mustDelta(v, "Location", 3)
	case "physician":
		mustRegex(v, "Phone", "[0-9]")
		mustDelta(v, "GradYear", 2)
		mustDelta(v, "OrgMembers", 50)
		mustDelta(v, "Quality", 1)
	}
	return v
}

func mustRegex(v *eval.Validator, attr, pattern string) {
	if err := v.SetRegex(attr, pattern); err != nil {
		panic(err)
	}
}

func mustDelta(v *eval.Validator, attr string, delta float64) {
	if err := v.SetDelta(attr, delta); err != nil {
		panic(err)
	}
}
