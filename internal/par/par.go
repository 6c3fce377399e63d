// Package par is the single home for the repo's parallelism-knob
// validation rule and for the range split every parallel scan shares.
// The discovery config and the CLI flags of cmd/renuver and
// cmd/rfdiscover carry {Workers, Shards}; before this package each
// surface re-implemented the same bounds with slightly different
// wording. The rule is uniform:
//
//   - 0 means the documented default (all CPUs, unsharded);
//   - negative values are invalid — rejected at construction or flag
//     parse, never clamped mid-run;
//   - values above Max are invalid — a parallelism degree beyond 1024 is
//     almost certainly a typo, and catching it early beats spawning a
//     goroutine storm.
package par

import "fmt"

// Max bounds every parallelism-shaped knob in the repo (discovery
// workers and shards).
const Max = 1024

// Check enforces the shared rule for one knob. name appears verbatim in
// the error, so callers pass their own surface's spelling ("-workers"
// at flag parse, "discovery: Workers" from the config check).
func Check(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0, got %d", name, v)
	}
	if v > Max {
		return fmt.Errorf("%s must be <= %d, got %d", name, Max, v)
	}
	return nil
}

// Parallelism bundles the two discovery parallelism knobs. The zero
// value means "all defaults" and is always valid.
type Parallelism struct {
	// Workers is the number of goroutines for discovery search (0 = all
	// CPUs, 1 = serial). Output is bit-identical for any value.
	Workers int
	// Shards splits discovery pattern materialization into contiguous
	// bands bounding peak memory (0 = unsharded). Output is identical
	// for any value.
	Shards int
}

// Validate applies Check to each knob, naming the offending field.
func (p Parallelism) Validate() error {
	if err := Check("Workers", p.Workers); err != nil {
		return err
	}
	return Check("Shards", p.Shards)
}

// Chunks splits [0, n) into at most workers contiguous ranges of equal
// size (the last may be shorter), in order. It returns no range for
// n = 0 and one range for workers < 1. Every chunked scan in core and
// discovery concatenates its per-chunk results in this order, which is
// what keeps their output independent of the worker count.
func Chunks(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var out [][2]int
	size := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
