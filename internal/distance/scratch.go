package distance

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/obs"
)

// Kernel selects the string-kernel family used for edit distances. The
// default (KernelAuto) runs Myers' bit-parallel algorithm whenever the
// shorter string fits one 64-bit word and falls back to the banded
// dynamic program otherwise. The forced variants exist for the
// differential test harness and for apples-to-apples benchmarking; they
// are process-wide and not meant for concurrent toggling.
type Kernel int32

const (
	// KernelAuto picks Myers for patterns of at most 64 runes, the
	// banded DP beyond that.
	KernelAuto Kernel = iota
	// KernelMyers forces the bit-parallel kernel (still falling back to
	// the banded DP when both strings exceed 64 runes, where a single
	// word cannot encode the pattern).
	KernelMyers
	// KernelBanded forces the pre-Myers banded dynamic program — the
	// reference the differential harness compares against.
	KernelBanded
)

var forcedKernel atomic.Int32

// SetKernel installs a process-wide kernel selection and returns the
// previous one. It exists for the differential tests and benchmarks;
// production code leaves KernelAuto in place.
func SetKernel(k Kernel) Kernel {
	return Kernel(forcedKernel.Swap(int32(k)))
}

// ActiveKernel returns the current process-wide kernel selection.
func ActiveKernel() Kernel { return Kernel(forcedKernel.Load()) }

// String names the kernel for logs and the build-info metric.
func (k Kernel) String() string {
	switch k {
	case KernelMyers:
		return "myers"
	case KernelBanded:
		return "banded"
	default:
		return "auto"
	}
}

// asciiPeq bounds the directly indexed region of the Myers
// pattern-equality table; runes past it go to the small spill list.
const asciiPeq = 128

// myersMax is the largest pattern (in runes) one uint64 DP column can
// encode.
const myersMax = 64

// Scratch is a per-worker arena for the string kernels: the rune decode
// buffers for the string entry points, the Myers pattern-equality table
// (epoch-stamped so it never needs clearing), and the banded-DP row for
// the long-string fallback. A Scratch makes every kernel call
// allocation-free after warm-up.
//
// A Scratch must not be used from more than one goroutine at a time;
// each worker owns one (engine.Matcher), and the package-level entry
// points borrow one from an internal pool.
type Scratch struct {
	ra, rb []rune // decode buffers for the string entry points

	// Myers pattern-equality table. peq[c] is only meaningful when
	// stamp[c] == epoch, so rebuilding for a new pattern is O(m), not
	// O(alphabet).
	peq   [asciiPeq]uint64
	stamp [asciiPeq]uint32
	epoch uint32
	// Spill entries for pattern runes >= asciiPeq (linear-probed; a
	// pattern has at most 64 of them).
	xkeys []rune
	xvals []uint64
	// The query of CappedPrepared (Prepare) and its alphabet mask;
	// patMyers when the bit-parallel kernel serves it, and prepared
	// while the Myers table holds it.
	pat      []rune
	patMask  uint64
	patMyers bool
	prepared bool

	// row is the banded-DP scratch row for the > 64-rune fallback.
	row []int
}

// NewScratch returns a fresh arena. Callers that loop over many pairs
// (workers, benchmarks) should create one and reuse it.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }

// appendRunes decodes the comparison symbols of s into buf's backing
// array (buf is reset to length 0 first): runes for valid UTF-8, raw
// bytes otherwise — the same symbol model as Runes, without the
// per-call allocation.
func appendRunes(buf []rune, s string) []rune {
	buf = buf[:0]
	i := 0
	for ; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			break
		}
		buf = append(buf, rune(c))
	}
	if i == len(s) {
		return buf
	}
	if utf8.ValidString(s) {
		for _, r := range s[i:] {
			buf = append(buf, r)
		}
		return buf
	}
	buf = buf[:0]
	for i = 0; i < len(s); i++ {
		buf = append(buf, rune(s[i]))
	}
	return buf
}

// RuneMask returns the 64-bit alphabet signature of a symbol slice:
// every distinct rune hashes onto one of 64 bits. Masks feed the
// pre-filter of the bounded predicate — see MaskLowerBound.
func RuneMask(rs []rune) uint64 {
	var m uint64
	for _, r := range rs {
		m |= 1 << (uint32(r) * 2654435761 >> 26)
	}
	return m
}

// MaskLowerBound returns a lower bound on the edit distance between two
// strings with alphabet signatures ma and mb. A bit set in ma and clear
// in mb certifies a symbol class occurring in a but nowhere in b (both
// masks use the same hash), and each such class needs at least one edit
// of its own; symmetrically for mb &^ ma. The bound is sound under hash
// collisions because a collision can only clear a bit of the
// difference, never set one.
func MaskLowerBound(ma, mb uint64) int {
	d := bits.OnesCount64(ma &^ mb)
	if d2 := bits.OnesCount64(mb &^ ma); d2 > d {
		d = d2
	}
	return d
}

// Levenshtein is the exact edit distance through this arena — the
// zero-allocation form of the package-level Levenshtein.
func (sc *Scratch) Levenshtein(a, b string) int {
	obs.GlobalAdd(obs.CtrLevenshteinCalls, 1)
	if a == b {
		return 0
	}
	sc.ra = appendRunes(sc.ra, a)
	sc.rb = appendRunes(sc.rb, b)
	return sc.distRunes(sc.ra, sc.rb)
}

// LevenshteinRunes is the exact edit distance over pre-decoded symbol
// slices through this arena.
func (sc *Scratch) LevenshteinRunes(ra, rb []rune) int {
	obs.GlobalAdd(obs.CtrLevenshteinCalls, 1)
	return sc.distRunes(ra, rb)
}

// Within reports whether the edit distance between a and b is at most
// max — the zero-allocation form of the package-level
// LevenshteinWithin, including the length and alphabet-mask pre-filters.
func (sc *Scratch) Within(a, b string, max int) bool {
	obs.GlobalAdd(obs.CtrLevenshteinCalls, 1)
	if max < 0 {
		return false
	}
	if a == b {
		return true
	}
	sc.ra = appendRunes(sc.ra, a)
	sc.rb = appendRunes(sc.rb, b)
	return sc.withinRunes(sc.ra, sc.rb, 0, 0, false, max)
}

// WithinRunes is Within over pre-decoded symbol slices; the alphabet
// masks are computed on the fly.
func (sc *Scratch) WithinRunes(ra, rb []rune, max int) bool {
	obs.GlobalAdd(obs.CtrLevenshteinCalls, 1)
	if max < 0 {
		return false
	}
	return sc.withinRunes(ra, rb, 0, 0, false, max)
}

// WithinRunesMasked is WithinRunes with caller-supplied alphabet masks
// (RuneMask), for callers — the engine's interner — that precompute the
// signature once per distinct string.
func (sc *Scratch) WithinRunesMasked(ra, rb []rune, ma, mb uint64, max int) bool {
	obs.GlobalAdd(obs.CtrLevenshteinCalls, 1)
	if max < 0 {
		return false
	}
	return sc.withinRunes(ra, rb, ma, mb, true, max)
}

// CappedRunesMasked is the bounded kernel that keeps its score: it
// returns the edit distance and true when the distance is at most max,
// and false when it is above (the same pre-filters and early exits as
// WithinRunesMasked decide that, so the two agree on every pair).
func (sc *Scratch) CappedRunesMasked(ra, rb []rune, ma, mb uint64, max int) (int, bool) {
	obs.GlobalAdd(obs.CtrLevenshteinCalls, 1)
	if max < 0 {
		return 0, false
	}
	return sc.cappedRunes(ra, rb, ma, mb, true, max)
}

// Prepare makes p, with alphabet mask mp (RuneMask), the query of
// CappedPrepared, for callers that bound one query against many texts:
// a query of 1..64 runes then builds its Myers table once instead of
// once per text. The empty query, queries over 64 runes and a forced
// banded DP keep CappedRunesMasked's dispatch.
func (sc *Scratch) Prepare(p []rune, mp uint64) {
	sc.pat, sc.patMask, sc.prepared = p, mp, false
	sc.patMyers = len(p) > 0 && len(p) <= myersMax && ActiveKernel() != KernelBanded
}

// CappedPrepared is CappedRunesMasked(p, t, mp, mt, max) for the query
// p of the last Prepare: in bound exactly when the distance is at most
// max, and then the distance. A query the bit-parallel kernel serves
// runs the same pre-filters (prefilter), then the capped Myers loop
// with p as the pattern whatever the lengths, which is exact because
// edit distance is symmetric; only the early exit that settles an
// out-of-bound pair can differ. Another kernel call on the arena in
// between costs a table rebuild, never a wrong answer.
func (sc *Scratch) CappedPrepared(t []rune, mt uint64, max int) (int, bool) {
	if !sc.patMyers {
		return sc.CappedRunesMasked(sc.pat, t, sc.patMask, mt, max)
	}
	obs.GlobalAdd(obs.CtrLevenshteinCalls, 1)
	if max < 0 {
		return 0, false
	}
	if d, ok, decided := prefilter(sc.pat, t, sc.patMask, mt, true, max); decided {
		return d, ok
	}
	obs.GlobalAdd(obs.CtrLevenshteinMyers, 1)
	if !sc.prepared {
		sc.buildPeq(sc.pat)
		sc.prepared = true
	}
	return sc.myersScan(len(sc.pat), t, max)
}

// distRunes dispatches the exact-distance kernels: Myers whenever the
// shorter side fits one word (and the banded DP is not forced), the
// banded DP otherwise.
func (sc *Scratch) distRunes(ra, rb []rune) int {
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	if len(rb) > myersMax || ActiveKernel() == KernelBanded {
		obs.GlobalAdd(obs.CtrLevenshteinBanded, 1)
		return sc.bandedDistance(ra, rb)
	}
	obs.GlobalAdd(obs.CtrLevenshteinMyers, 1)
	return sc.myersDistance(rb, ra)
}

// withinRunes dispatches the bounded predicate.
func (sc *Scratch) withinRunes(ra, rb []rune, ma, mb uint64, haveMasks bool, max int) bool {
	_, ok := sc.cappedRunes(ra, rb, ma, mb, haveMasks, max)
	return ok
}

// prefilter settles the bounded predicate for ra and rb (either order)
// where lengths and alphabet masks suffice, counting its early exits:
// decided is true when it did, and then the pair is in bound (ok) with
// distance d. The masks are computed here when haveMasks is false. Both
// bounded entry points, cappedRunes and CappedPrepared, run it first.
func prefilter(ra, rb []rune, ma, mb uint64, haveMasks bool, max int) (d int, ok, decided bool) {
	long, short := len(ra), len(rb)
	if long < short {
		long, short = short, long
	}
	if long-short > max {
		// Length difference alone exceeds the bound: no DP needed.
		obs.GlobalAdd(obs.CtrLevenshteinEarlyExits, 1)
		return 0, false, true
	}
	if short == 0 {
		// The length pre-filter already certified long <= max.
		return long, true, true
	}
	if !haveMasks {
		ma, mb = RuneMask(ra), RuneMask(rb)
	}
	if MaskLowerBound(ma, mb) > max {
		// Some symbol classes of one side are provably absent from the
		// other: the distance is at least one edit per such class.
		obs.GlobalAdd(obs.CtrLevenshteinMaskRejects, 1)
		obs.GlobalAdd(obs.CtrLevenshteinEarlyExits, 1)
		return 0, false, true
	}
	return 0, false, false
}

// cappedRunes dispatches the bounded kernel: the pre-filters, then the
// threshold-aware kernel. It returns the exact distance and true when
// it is at most max, false otherwise.
func (sc *Scratch) cappedRunes(ra, rb []rune, ma, mb uint64, haveMasks bool, max int) (int, bool) {
	if d, ok, decided := prefilter(ra, rb, ma, mb, haveMasks, max); decided {
		return d, ok
	}
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) > myersMax || ActiveKernel() == KernelBanded {
		obs.GlobalAdd(obs.CtrLevenshteinBanded, 1)
		return sc.bandedCapped(ra, rb, max)
	}
	obs.GlobalAdd(obs.CtrLevenshteinMyers, 1)
	return sc.myersCapped(rb, ra, max)
}

// bandedDistance is the classic two-row dynamic program with the
// shorter string on the columns (scratch space O(min(|a|,|b|)), served
// from the arena) — the exact-distance fallback for patterns over 64
// runes and the reference kernel under KernelBanded. len(ra) >= len(rb)
// and len(rb) > 0 are the caller's invariants.
func (sc *Scratch) bandedDistance(ra, rb []rune) int {
	prev := sc.dpRow(len(rb) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		diag := prev[0] // prev[i-1][j-1]
		prev[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 0
			if ra[i-1] != rb[j-1] {
				cost = 1
			}
			next := min3(prev[j]+1, prev[j-1]+1, diag+cost)
			diag = prev[j]
			prev[j] = next
		}
	}
	return prev[len(rb)]
}

// bandedCapped is the threshold-aware banded DP: cells provably above
// the bound saturate at inf, and the scan aborts as soon as a whole row
// exceeds the bound. A cell whose true value is at most the bound is
// computed exactly (its optimal predecessor is too), so a final score
// within the bound is the distance. Same caller invariants as
// bandedDistance.
func (sc *Scratch) bandedCapped(ra, rb []rune, max int) (int, bool) {
	const inf = 1 << 30
	prev := sc.dpRow(len(rb) + 1)
	for j := range prev {
		if j <= max {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= len(ra); i++ {
		diag := prev[0]
		if i <= max {
			prev[0] = i
		} else {
			prev[0] = inf
		}
		rowMin := prev[0]
		for j := 1; j <= len(rb); j++ {
			cost := 0
			if ra[i-1] != rb[j-1] {
				cost = 1
			}
			next := min3(prev[j]+1, prev[j-1]+1, diag+cost)
			if next > inf {
				next = inf
			}
			diag = prev[j]
			prev[j] = next
			if next < rowMin {
				rowMin = next
			}
		}
		if rowMin > max {
			// Whole DP row above the bound: the distance can only grow.
			obs.GlobalAdd(obs.CtrLevenshteinEarlyExits, 1)
			return 0, false
		}
	}
	d := prev[len(rb)]
	return d, d <= max
}

// dpRow returns the arena's DP row grown to at least n entries.
func (sc *Scratch) dpRow(n int) []int {
	if cap(sc.row) < n {
		sc.row = make([]int, n)
	}
	return sc.row[:n]
}
