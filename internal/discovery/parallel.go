package discovery

import (
	"context"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/distance"
	"repro/internal/rfd"
)

// runChunks splits [0, n) into at most workers contiguous ranges of
// equal size (the last may be shorter) and runs fn once per range, in
// its own goroutine, or inline when only one range results (the serial
// path spawns no goroutines). It returns the number of ranges: none for
// n = 0, one for workers < 1. fn receives the range's index, below
// workers, so callers can keep per-worker state without sharing; every
// chunked scan writes its results by position, which is what keeps its
// output independent of the worker count.
func runChunks(workers, n int, fn func(chunk, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	w := max(1, min(workers, n))
	size := (n + w - 1) / w
	if size == n {
		fn(0, 0, n)
		return 1
	}
	var wg sync.WaitGroup
	chunk := 0
	for lo := 0; lo < n; lo += size {
		wg.Add(1)
		go func(chunk, lo, hi int) {
			defer wg.Done()
			fn(chunk, lo, hi)
		}(chunk, lo, min(lo+size, n))
		chunk++
	}
	wg.Wait()
	return chunk
}

// runShared calls fn(w, k) once for every k in [0, n), on at most
// workers goroutines, or inline when one suffices (the serial path
// spawns no goroutine and allocates nothing). w, below max(1, workers),
// names the goroutine, so callers can keep per-worker state without
// sharing. The goroutines take indices from one shared cursor, so an
// index goes to whichever worker is free and uneven work balances
// across them, where runChunks' fixed ranges would leave one worker
// with the slow half. fn writes its results by index, which keeps the
// output independent of the worker count and of which worker took
// which index.
func runShared(workers, n int, fn func(w, k int)) {
	if workers <= 1 || n <= 1 {
		for k := 0; k < n; k++ {
			fn(0, k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				fn(w, k)
			}
		}()
	}
	wg.Wait()
}

// pairAt decodes a flat pair index k into the (i, j) tuple pair, i < j,
// under the row-major enumeration (0,1), (0,2), ..., (1,2), ... that the
// serial sampler has always used. Each worker decodes its chunk's first
// index once and advances incrementally from there.
func pairAt(n, k int) (int, int) {
	i, rowStart := 0, 0
	for {
		rowLen := n - 1 - i
		if k < rowStart+rowLen {
			return i, i + 1 + (k - rowStart)
		}
		rowStart += rowLen
		i++
	}
}

// searchJob is one independent derivation unit: a (RHS attribute, LHS
// subset) pair, covering every β of that RHS's grid in one incremental
// greedy pass. res is where the job's per-β results go in the flat
// result slab (stride = the RHS's subset count, so a linear walk of the
// slab visits candidates in the serial order: β-major, subset-minor).
type searchJob struct {
	rhs int
	lhs []int
	res int
}

// rhsPlan is the shared per-RHS search state: the β grid entries under
// the RHS cap (ascending, like Config.RHSGrid), the violating-prefix
// length per β, the job and result ranges, and the subset count (the
// result-slab stride).
type rhsPlan struct {
	betas    []float64
	cuts     []int
	resStart int
	resEnd   int
	stride   int
}

// searchCandidates runs the greedy lattice search over every RHS
// attribute. Jobs are (RHS, LHS subset) pairs in the serial enumeration
// order; workers take them, and the per-RHS orders before them, from a
// shared cursor and fill a positional result slab, and the merge walks
// it linearly, so the output is byte-identical for any worker count.
// Each worker reuses one threshold vector and one set list across its
// jobs.
//
// Within one job the β grid is processed by a single incremental pass:
// the grid is ascending, so each smaller β's violating prefix extends
// the previous one, and the greedy fold's state at each cut boundary is
// exactly the threshold vector a from-scratch pass for that β would
// produce. This turns Σ_β |prefix(β)| greedy work into max_β |prefix(β)|.
//
// The fold and the support check visit only the patterns set in the
// job's cap bitsets (capSets): a pattern outside an LHS attribute's cap
// fails every threshold vector the fold can reach, so skipping it is
// exact whatever the pattern order.
func searchCandidates(ctx context.Context, st *patStore, cfg *Config, m, workers int) rfd.Set {
	caps := newCapSets(st, cfg, m, workers)
	// Per-RHS pattern order by descending RHS distance, built
	// concurrently across RHS attributes: each β's violating set is then
	// a prefix. The cap bitsets follow each RHS into its order.
	orders := make([][]int, m)
	runShared(workers, m, func(_, rhs int) {
		orders[rhs] = rhsOrder(st, rhs)
		caps.permute(orders[rhs], rhs)
	})

	jobs, plans, resLen := buildJobs(st, orders, cfg, m)

	results := make([]*rfd.RFD, resLen)
	maxW := min(cfg.MaxLHS, m-1)
	// Per-worker scratch, one slab of each for all workers.
	ths, setss := make([]float64, max(1, workers)*maxW), make([][]uint64, max(1, workers)*2*maxW)
	runShared(workers, len(jobs), func(w, k int) {
		// One derivation unit per check: each job is a full greedy
		// fold, so the checkpoint granularity is already coarse work.
		if ctx.Err() != nil {
			return
		}
		th, sets := ths[w*maxW:(w+1)*maxW:(w+1)*maxW], setss[w*2*maxW:(w+1)*2*maxW:(w+1)*2*maxW]
		job := jobs[k]
		deriveSubset(st, orders[job.rhs], &plans[job.rhs], job, caps, th, sets, results, cfg)
	})

	var out rfd.Set
	for rhs := 0; rhs < m; rhs++ {
		var cands rfd.Set
		for k := plans[rhs].resStart; k < plans[rhs].resEnd; k++ {
			if results[k] != nil {
				cands = append(cands, results[k])
			}
		}
		if !cfg.KeepDominated {
			cands = rfd.Minimize(cands)
		}
		out = append(out, cands...)
	}
	return out
}

// rhsOrder sorts the indices of patterns whose RHS component is present
// by descending RHS distance (missing components cannot witness a
// violation). sort.Slice on the same input yields the same permutation
// every run, so the order — and the greedy pass that consumes it — is
// deterministic. The comparison reads the column in its own encoding,
// which orders present values exactly as their decoded float64 does.
func rhsOrder(st *patStore, rhs int) []int {
	c := &st.cols[rhs]
	order := make([]int, 0, st.n)
	for idx := 0; idx < st.n; idx++ {
		if !distance.IsMissing(c.get(idx)) {
			order = append(order, idx)
		}
	}
	switch c.enc {
	case encU8:
		sort.Slice(order, func(a, b int) bool { return c.u8[order[a]] > c.u8[order[b]] })
	case encF32:
		sort.Slice(order, func(a, b int) bool { return c.f32[order[a]] > c.f32[order[b]] })
	default:
		sort.Slice(order, func(a, b int) bool { return c.f64[order[a]] > c.f64[order[b]] })
	}
	return order
}

// capSets are a search's cap bitsets, m² sets of words words each in
// one slab. The first m are the store-order sets: bit k of attribute
// a's set is set when pattern k passes the fold's LHS test on a at the
// attribute's cap — its distance is present and at most limitFor(a).
// Thresholds start at the caps and only fall, so a pattern whose bit is
// clear fails that test at every threshold a job can reach. Then come
// m-1 sets per RHS: the store sets of the other attributes permuted
// into that RHS's pattern order.
type capSets struct {
	m, words int
	bits     []uint64
}

// newCapSets builds the store-order sets, one attribute per worker
// chunk, and leaves the per-RHS sets to permute.
func newCapSets(st *patStore, cfg *Config, m, workers int) *capSets {
	words := (st.n + 63) >> 6
	c := &capSets{m: m, words: words, bits: make([]uint64, m*m*words)}
	runChunks(workers, m, func(_, lo, hi int) {
		for a := lo; a < hi; a++ {
			set, limit := c.store(a), cfg.limitFor(a)
			for k := 0; k < st.n; k++ {
				if d := st.at(k, a); !(distance.IsMissing(d) || d > limit) {
					set[k>>6] |= 1 << uint(k&63)
				}
			}
		}
	})
	return c
}

// at returns set i of the slab.
func (c *capSets) at(i int) []uint64 { return c.bits[i*c.words : (i+1)*c.words] }

// store returns attribute a's store-order set.
func (c *capSets) store(a int) []uint64 { return c.at(a) }

// inOrder returns attribute a's set in rhs's pattern order (a != rhs).
func (c *capSets) inOrder(rhs, a int) []uint64 {
	if a > rhs {
		a--
	}
	return c.at(c.m + rhs*(c.m-1) + a)
}

// permute fills rhs's sets from the store sets: bit p of attribute a's
// set is bit order[p] of a's store set. Distinct RHS attributes write
// disjoint sets, so workers may permute concurrently.
func (c *capSets) permute(order []int, rhs int) {
	for w := 0; w<<6 < len(order); w++ {
		block := order[w<<6 : min((w+1)<<6, len(order))]
		for a := 0; a < c.m; a++ {
			if a == rhs {
				continue
			}
			set := c.store(a)
			var x uint64
			for p, idx := range block {
				x |= (set[idx>>6] >> uint(idx&63) & 1) << uint(p)
			}
			c.inOrder(rhs, a)[w] = x
		}
	}
}

// buildJobs enumerates every (RHS, LHS subset) derivation unit under
// the config's limits, RHS-major with subsets in enumeration order, and
// returns the job list, the per-RHS plans (β grid, violating-prefix
// cuts, result ranges), and the total result-slab length.
func buildJobs(st *patStore, orders [][]int, cfg *Config, m int) ([]searchJob, []rhsPlan, int) {
	var jobs []searchJob
	plans := make([]rhsPlan, m)
	pool := make([]int, 0, m-1)
	resLen := 0
	for rhs := 0; rhs < m; rhs++ {
		pool = pool[:0]
		for a := 0; a < m; a++ {
			if a != rhs {
				pool = append(pool, a)
			}
		}
		subsets := enumerateSubsets(pool, cfg.MaxLHS)
		order := orders[rhs]
		rhsLimit := cfg.limitFor(rhs)
		plan := &plans[rhs]
		for _, beta := range cfg.RHSGrid {
			if beta > rhsLimit {
				continue
			}
			plan.betas = append(plan.betas, beta)
			// Violating prefix: d_rhs > beta.
			plan.cuts = append(plan.cuts, sort.Search(len(order), func(k int) bool {
				return st.at(order[k], rhs) <= beta
			}))
		}
		plan.resStart = resLen
		plan.stride = len(subsets)
		resLen += len(plan.betas) * len(subsets)
		plan.resEnd = resLen
		for si, lhs := range subsets {
			jobs = append(jobs, searchJob{rhs: rhs, lhs: lhs, res: plan.resStart + si})
		}
	}
	return jobs, plans, resLen
}

// deriveSubset runs one job: a single incremental greedy fold over the
// RHS's pattern order, snapshotting a candidate at every β cut
// boundary, each gated by the MinSupport check. Results land at
// results[job.res + βindex*stride]. th (room for len(job.lhs)) and sets
// (room for twice that: the LHS cap sets in RHS order, then in store
// order) are per-worker scratch; nothing escapes them except the
// constraints of kept candidates.
//
// The grid is ascending, so cuts descend with β: walking β from largest
// to smallest only ever extends the processed prefix, and the fold
// state at each boundary equals a from-scratch greedy pass for that β.
// Thresholds only fall along the walk, so both checks are monotone:
// once the fold fails (a violating pair identical on every LHS
// attribute) or the support drops below MinSupport, every smaller β
// fails too, and a pattern that failed a support check fails every
// later one.
func deriveSubset(st *patStore, order []int, plan *rhsPlan, job searchJob, caps *capSets, th []float64, sets [][]uint64, results []*rfd.RFD, cfg *Config) {
	lhs := job.lhs
	th = th[:len(lhs)]
	orderCaps, storeCaps := sets[:len(lhs)], sets[len(lhs):2*len(lhs)]
	for i, a := range lhs {
		th[i] = cfg.limitFor(a)
		orderCaps[i], storeCaps[i] = caps.inOrder(job.rhs, a), caps.store(a)
	}
	prev, witness := 0, 0
	for bi := len(plan.betas) - 1; bi >= 0; bi-- {
		cut := plan.cuts[bi]
		// Every violating pattern that satisfies the LHS must be cut.
		for p := prev; ; p++ {
			if p = nextFit(st, orderCaps, order, p, cut, lhs, th); p < 0 {
				break
			}
			if !cutPattern(st, order[p], lhs, th) {
				return // this β and every smaller one fail
			}
		}
		prev = cut
		if !supportAtLeast(st, storeCaps, lhs, th, cfg.MinSupport, &witness) {
			return
		}
		constraints := make([]rfd.Constraint, len(lhs))
		for i, a := range lhs {
			constraints[i] = rfd.Constraint{Attr: a, Threshold: th[i]}
		}
		dep, err := rfd.New(constraints, rfd.Constraint{Attr: job.rhs, Threshold: plan.betas[bi]})
		if err != nil {
			continue
		}
		results[job.res+bi*plan.stride] = dep
	}
}

// nextFit returns the first position p in [from, end) set in every
// bitset of sets whose pattern — ids[p], or p itself when ids is nil —
// satisfies every LHS constraint in th, or -1 when there is none.
func nextFit(st *patStore, sets [][]uint64, ids []int, from, end int, lhs []int, th []float64) int {
	for w := from >> 6; w<<6 < end; w++ {
		x := sets[0][w]
		for _, s := range sets[1:] {
			x &= s[w]
		}
		if w == from>>6 {
			x &= ^uint64(0) << uint(from&63)
		}
		for ; x != 0; x &= x - 1 {
			p := w<<6 | bits.TrailingZeros64(x)
			if p >= end {
				return -1
			}
			k := p
			if ids != nil {
				k = ids[p]
			}
			if fits(st, k, lhs, th) {
				return p
			}
		}
	}
	return -1
}

// supportAtLeast reports whether at least min patterns set in every
// store cap bitset of sets satisfy every LHS constraint, stopping at
// the min-th witness. The count starts at pattern *first, which the
// caller guarantees every earlier pattern fails th at, and moves *first
// to the first witness found: a job's thresholds only fall, so the
// patterns before one β's first witness fail every later β too. The
// lattice search only needs the MinSupport comparison, not the exact
// count (support computes that, once per surviving rule, for the
// rule_emitted provenance events).
func supportAtLeast(st *patStore, sets [][]uint64, lhs []int, th []float64, min int, first *int) bool {
	k := *first - 1
	for count := 0; count < min; count++ {
		if k = nextFit(st, sets, nil, k+1, st.n, lhs, th); k < 0 {
			return false
		}
		if count == 0 {
			*first = k
		}
	}
	return true
}
