package engine

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/rfd"
)

// Rules one query row at a time. Key-RFDc detection, the IS_FAULTLESS
// plan and Σ revalidation each ask, for one query row q, which other
// rows satisfy a rule's LHS (and breach its RHS). Instead of one
// (pair, rule) question at a time, a RowPass computes q's distance to a
// block of rows once per attribute — a capped distance column — turns
// every distinct (attribute, threshold) test into a bitset over the
// block, and answers a rule as the AND of its tests' bitsets.

// maxExact is where a string bound stops converting to an int exactly
// (View.Within floors it to one).
const maxExact = 1 << 63

// Exact reports whether a threshold is in [0, 2⁶³), the range in which
// "the capped column's value is at most th" is Within(attr, q, j, th)
// and "present and above th" is the literal breach test. NaN, +Inf and
// larger bounds are not: a rule carrying one keeps the per-pair loop.
func Exact(th float64) bool { return th >= 0 && th < maxExact }

// memoSize is the number of slots of Column's per-call memo: a
// direct-mapped table keyed by the other row's interned id, so a value
// repeated down a column costs one kernel call.
const memoSize = 128

// Column fills col[k] with the capped distance between flat rows q and
// lo+k on attr:
//
//   - distance.Missing exactly where Distance is missing;
//   - Distance itself, bit for bit, when it is at most limit;
//   - +Inf when the distance exists but exceeds limit.
//
// limit must satisfy Exact. For every threshold th ≤ limit that
// satisfies Exact, col[k] <= th is then Within(attr, q, lo+k, th), and
// "present and > th" is the breach test on Distance. Strings run the
// bounded kernel directly, behind the same length pre-filter as Within,
// and never touch the distance cache.
func (m *Matcher) Column(col []float64, attr, q, lo int, limit float64) {
	v := m.v
	cq, rq := v.colAt(attr, q)
	for k := 0; k < len(col); {
		j := lo + k
		c, r := v.colAt(attr, j)
		seg := len(col) - k
		if v.base != nil && j < v.baseOff && j+seg > v.baseOff {
			seg = v.baseOff - j
		}
		m.columnSegment(col[k:k+seg], attr, cq, rq, c, r, limit)
		k += seg
	}
}

// columnSegment is Column over rows held contiguously by one columnar
// segment, starting at its row r.
func (m *Matcher) columnSegment(out []float64, attr int, cq *col, rq int, c *col, r int, limit float64) {
	kinds := c.kind[r : r+len(out)]
	inf := math.Inf(1)
	switch kq := cq.kind[rq]; {
	case kq == dataset.KindString:
		m.stringSegment(out, attr, cq.sid[rq], kinds, c.sid[r:r+len(out)], limit)
	case kq.Numeric():
		x, nums := cq.num[rq], c.num[r:r+len(out)]
		for k, kj := range kinds {
			d := distance.Missing
			if kj.Numeric() {
				if d = math.Abs(x - nums[k]); d > limit {
					d = inf
				}
			}
			out[k] = d
		}
	case kq == dataset.KindBool:
		x, nums := cq.num[rq], c.num[r:r+len(out)]
		for k, kj := range kinds {
			d := distance.Missing
			if kj == dataset.KindBool {
				d = 1
				if nums[k] == x {
					d = 0
				}
				if d > limit {
					d = inf
				}
			}
			out[k] = d
		}
	default:
		for k := range out {
			out[k] = distance.Missing
		}
	}
}

// stringSegment is columnSegment for a string query value a.
func (m *Matcher) stringSegment(out []float64, attr int, a int32, kinds []dataset.Kind, sids []int32, limit float64) {
	in := m.v.interns[attr]
	ra, la, ma := in.runesOf(a), in.lenOf(a), in.maskOf(a)
	bound := int(math.Floor(limit))
	inf := math.Inf(1)
	m.memoGen++
	if m.memoGen == 0 {
		// uint32 wrap: stale keys could match the new generation.
		m.memoKey = [memoSize]uint64{}
		m.memoGen = 1
	}
	gen := uint64(m.memoGen) << 32
	for k, kj := range kinds {
		if kj != dataset.KindString {
			out[k] = distance.Missing
			continue
		}
		b := sids[k]
		if b == a {
			out[k] = 0
			continue
		}
		slot, key := b&(memoSize-1), gen|uint64(uint32(b))
		d := m.memoD[slot]
		if m.memoKey[slot] != key {
			d = -1
			if abs(in.lenOf(b)-la) <= bound {
				if e, ok := m.sc.CappedRunesMasked(ra, in.runesOf(b), ma, in.maskOf(b), bound); ok {
					d = int32(e)
				}
			}
			m.memoKey[slot], m.memoD[slot] = key, d
		}
		if d < 0 {
			out[k] = inf
		} else {
			out[k] = float64(d)
		}
	}
}

// MaxBlock is the largest block a RowPass evaluates at once; it is
// also how often a pass can notice an expired context.
const MaxBlock = CheckEvery

// RowPass evaluates rules for one query row, a block of rows at a
// time. Register the rules (Rule), start a pass (Scan), and for each
// block (Next) read each rule's matching rows (And). The buffers are
// the owning Matcher's and are reused from pass to pass; a RowPass is
// as single-goroutine as its Matcher.
type RowPass struct {
	m     *Matcher
	tests []rowTest
	lits  []int32    // per rule: its test ids
	rules []passRule // registered rules in order
	col   []float64  // one attribute's column over the block
	bits  []uint64   // a bitset per test, one per rule (And), one for Union

	q, lo, hi, end int // query row, range, current block's end
	grow           bool
	n, words       int // current block's rows and 64-bit words
}

// rowTest is one distinct threshold test. The tests of one attribute
// form a chain from its first; the head carries the chain's largest
// threshold, the limit its column is capped at.
type rowTest struct {
	attr   int
	th     float64
	breach bool  // "present and > th" rather than "≤ th"
	head   bool  // first test on attr
	next   int32 // next test on attr, -1 at the end
	last   int32 // head only: the chain's last test
	limit  float64
}

// passRule is one registered rule: its tests are lits[off:off+n].
type passRule struct {
	off, n int32
	tag    int
}

// Pass returns the matcher's RowPass with no rules registered and
// room for registering any subset of sigma without growing.
func (m *Matcher) Pass(sigma rfd.Set) *RowPass {
	p := &m.pass
	p.m = m
	lits := 0
	for _, dep := range sigma {
		lits += len(dep.LHS) + 1
	}
	p.tests = slices.Grow(p.tests[:0], lits)
	p.lits = slices.Grow(p.lits[:0], lits)
	p.rules = slices.Grow(p.rules[:0], len(sigma))
	return p
}

// Rule registers dep's LHS match tests — leaving out the constraint on
// skipAttr (-1 keeps them all) — plus, with breach, its RHS breach
// test; at least one test must remain. tag is the caller's name for
// the rule (Tag). Rule returns false and registers nothing when a
// threshold it would test is not Exact: the caller then answers the
// pass with the per-pair loop.
func (p *RowPass) Rule(dep *rfd.RFD, skipAttr int, breach bool, tag int) bool {
	for _, c := range dep.LHS {
		if c.Attr != skipAttr && !Exact(c.Threshold) {
			return false
		}
	}
	if breach && !Exact(dep.RHS.Threshold) {
		return false
	}
	off := int32(len(p.lits))
	for _, c := range dep.LHS {
		if c.Attr != skipAttr {
			p.lits = append(p.lits, p.test(c.Attr, c.Threshold, false))
		}
	}
	if breach {
		p.lits = append(p.lits, p.test(dep.RHS.Attr, dep.RHS.Threshold, true))
	}
	p.rules = append(p.rules, passRule{off: off, n: int32(len(p.lits)) - off, tag: tag})
	return true
}

// test returns the id of the (attr, th, breach) test, registering it.
func (p *RowPass) test(attr int, th float64, breach bool) int32 {
	head := int32(-1)
	for i := range p.tests {
		t := &p.tests[i]
		if t.attr != attr {
			continue
		}
		if t.th == th && t.breach == breach {
			return int32(i)
		}
		if t.head {
			head = int32(i)
		}
	}
	id := int32(len(p.tests))
	p.tests = append(p.tests, rowTest{attr: attr, th: th, breach: breach, next: -1})
	if head < 0 {
		t := &p.tests[id]
		t.head, t.last, t.limit = true, id, th
		return id
	}
	h := &p.tests[head]
	p.tests[h.last].next = id
	h.last = id
	if th > h.limit {
		h.limit = th
	}
	return id
}

// Rules returns the number of registered rules.
func (p *RowPass) Rules() int { return len(p.rules) }

// Tag returns the tag rule h was registered with.
func (p *RowPass) Tag(h int) int { return p.rules[h].tag }

// Scan starts a pass of query row q over rows [lo, hi). With grow, the
// blocks start at one 64-row word and double up to MaxBlock, for passes
// that may stop early; otherwise every block is MaxBlock rows.
func (p *RowPass) Scan(q, lo, hi int, grow bool) {
	p.q, p.lo, p.hi, p.end, p.grow, p.n = q, lo, lo, hi, grow, 0
	rows := min(hi-lo, MaxBlock)
	if cap(p.col) < rows {
		p.col = make([]float64, rows)
	}
	if need := p.bitRows() * ((rows + 63) >> 6); cap(p.bits) < need {
		p.bits = make([]uint64, need, max(need, 2*cap(p.bits)))
	}
}

// Next evaluates every registered test on the next block, returning
// false once the range is exhausted.
func (p *RowPass) Next() bool {
	if p.hi >= p.end {
		return false
	}
	n := MaxBlock
	if p.grow {
		n = min(max(2*p.n, 64), MaxBlock)
	}
	p.lo, p.n = p.hi, min(n, p.end-p.hi)
	p.hi = p.lo + p.n
	p.words = (p.n + 63) >> 6
	p.bits = p.bits[:p.bitRows()*p.words]
	col := p.col[:p.n]
	for i := range p.tests {
		if !p.tests[i].head {
			continue
		}
		p.m.Column(col, p.tests[i].attr, p.q, p.lo, p.tests[i].limit)
		for t := int32(i); t >= 0; t = p.tests[t].next {
			p.fill(t, col)
		}
	}
	return true
}

// bitRows is the number of block bitsets: tests, rules and the union.
func (p *RowPass) bitRows() int { return len(p.tests) + len(p.rules) + 1 }

// Lo returns the first row of the current block: bit k of a block
// bitset is row Lo()+k.
func (p *RowPass) Lo() int { return p.lo }

// fill sets test t's bitset over the block from its attribute's column,
// in the comparison forms of Pattern.Satisfies and Violates.
func (p *RowPass) fill(t int32, col []float64) {
	w := p.row(int(t))
	th, breach := p.tests[t].th, p.tests[t].breach
	for wi := range w {
		seg := col[wi<<6 : min((wi+1)<<6, len(col))]
		var x uint64
		if breach {
			for k, d := range seg {
				if !distance.IsMissing(d) && d > th {
					x |= 1 << uint(k)
				}
			}
		} else {
			for k, d := range seg {
				if !distance.IsMissing(d) && d <= th {
					x |= 1 << uint(k)
				}
			}
		}
		w[wi] = x
	}
}

// row returns block bitset number i.
func (p *RowPass) row(i int) []uint64 { return p.bits[i*p.words : (i+1)*p.words] }

// And returns the block's rows, other than the query row, on which
// every test of rule h holds: bit k is row Lo()+k. The bitset stays
// valid until the next block; Set(h) returns it again.
func (p *RowPass) And(h int) []uint64 {
	r := p.rules[h]
	acc := p.Set(h)
	lits := p.lits[r.off : r.off+r.n]
	copy(acc, p.row(int(lits[0])))
	for _, t := range lits[1:] {
		for wi, x := range p.row(int(t)) {
			acc[wi] &= x
		}
	}
	if k := p.q - p.lo; k >= 0 && k < p.n {
		acc[k>>6] &^= 1 << uint(k&63)
	}
	return acc
}

// Set returns rule h's bitset as And last computed it on this block.
func (p *RowPass) Set(h int) []uint64 { return p.row(len(p.tests) + h) }

// Union returns the OR of every rule's bitset as And last computed it
// on this block.
func (p *RowPass) Union() []uint64 {
	u := p.row(len(p.tests) + len(p.rules))
	for wi := range u {
		u[wi] = 0
	}
	for h := range p.rules {
		for wi, x := range p.Set(h) {
			u[wi] |= x
		}
	}
	return u
}

// Has reports whether bit k is set in a block bitset.
func Has(set []uint64, k int) bool { return set[k>>6]&(1<<uint(k&63)) != 0 }

// Any reports whether a block bitset has a set bit.
func Any(set []uint64) bool {
	for _, x := range set {
		if x != 0 {
			return true
		}
	}
	return false
}

// NextBit returns the first set bit at or after k, or -1.
func NextBit(set []uint64, k int) int {
	for wi := k >> 6; wi < len(set); wi++ {
		x := set[wi]
		if wi == k>>6 {
			x &= ^uint64(0) << uint(k&63)
		}
		if x != 0 {
			return wi<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}
