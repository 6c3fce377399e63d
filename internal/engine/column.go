package engine

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/rfd"
)

// Rules one query row at a time. Candidate search, key-RFDc detection,
// the IS_FAULTLESS plan and Σ revalidation each ask, for one query row
// q, which other rows satisfy a rule's LHS (and breach its RHS).
// Instead of one (pair, rule) question at a time, a RowPass reads q's
// distance to every row once per attribute — a capped distance column,
// kept by the Matcher for every later pass of q until a write to the
// attribute — turns every distinct (attribute, threshold) test into a
// bitset over a block of rows, and answers a rule as the AND of its
// tests' bitsets.

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
// bounded kernel directly, behind the same length pre-filter as Within.
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
	// a is the query of every kernel call below.
	m.sc.Prepare(ra, ma)
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
				if e, ok := m.sc.CappedPrepared(in.runesOf(b), in.maskOf(b), bound); ok {
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

// keptCol is query row q's column on one attribute over flat rows
// [0, n), capped at limit, kept by the Matcher across passes: rows
// [lo, hi) are filled, and each pass extends the range to the rows it
// reads. It is valid while q, n and the attribute's write count stay as
// they were when it was started; any change, and a pass needing a
// larger cap, starts it afresh. Beside the distances it keeps a ladder
// of bitsets over the same rows (one word per 64 rows): the present
// mask, then per rung r the present rows within rung r's threshold.
type keptCol struct {
	q, n   int
	writes uint64
	limit  float64
	lo, hi int
	d      []float64
	lad    []uint64
}

// keptFor returns attr's kept column for query row q, capped at least at
// need, started afresh when it is not valid.
func (m *Matcher) keptFor(attr, q int, need float64) *keptCol {
	kc := &m.kept[attr]
	n, writes := m.v.n, m.v.cols[attr].writes
	if kc.q == q && kc.n == n && kc.writes == writes && kc.limit >= need {
		return kc
	}
	kc.q, kc.n, kc.writes, kc.lo, kc.hi = q, n, writes, 0, 0
	kc.limit = need
	if rs := m.rungs[attr]; len(rs) > 0 {
		kc.limit = max(need, rs[len(rs)-1])
	}
	kc.d = slices.Grow(kc.d[:0], n)[:n]
	words := (n + 63) >> 6
	size := (len(m.rungs[attr]) + 1) * words
	kc.lad = slices.Grow(kc.lad[:0], size)[:size]
	return kc
}

// fill extends kc's filled range to cover rows [lo, hi), computing the
// rows it adds (and any gap between the two ranges).
func (m *Matcher) fill(kc *keptCol, attr, lo, hi int) {
	if kc.lo == kc.hi {
		kc.lo, kc.hi = lo, lo
	}
	if lo < kc.lo {
		m.fillRows(kc, attr, lo, kc.lo)
		kc.lo = lo
	}
	if hi > kc.hi {
		m.fillRows(kc, attr, kc.hi, hi)
		kc.hi = hi
	}
}

// fillRows computes kc's distances and ladder bits on rows [lo, hi).
// Each present row sets the bit of the first rung at least its
// distance; the rungs are then prefix-ORed, so rung r holds every
// present row within rung r's threshold. The words' other rows keep
// their bits.
func (m *Matcher) fillRows(kc *keptCol, attr, lo, hi int) {
	m.Column(kc.d[lo:hi], attr, kc.q, lo, kc.limit)
	rs, below := m.rungs[attr], m.below[attr]
	top := math.Inf(-1)
	if len(rs) > 0 {
		top = rs[len(rs)-1]
	}
	first := m.first[:len(rs)]
	words := (kc.n + 63) >> 6
	for w := lo >> 6; w<<6 < hi; w++ {
		r0, r1 := max(lo, w<<6), min(hi, (w+1)<<6)
		var present uint64
		for j, d := range kc.d[r0:r1] {
			if d != d { // missing
				continue
			}
			bit := uint64(1) << uint((r0+j)&63)
			present |= bit
			if d > top {
				continue
			}
			k := int(d) // d in (k-1, k] after the next line
			if float64(k) < d {
				k++
			}
			r := below[min(k, len(below)-1)]
			for rs[r] < d {
				r++
			}
			first[r] |= bit
		}
		span := ^uint64(0) >> uint(64-(r1-r0)) << uint(r0&63)
		kc.lad[w] = kc.lad[w]&^span | present
		var acc uint64
		for r := range first {
			acc |= first[r]
			first[r] = 0
			i := (r+1)*words + w
			kc.lad[i] = kc.lad[i]&^span | acc
		}
	}
}

// MaxBlock is the largest block a RowPass evaluates at once; it is
// also how often a pass can notice an expired context.
const MaxBlock = CheckEvery

// RowPass evaluates rules for one query row, a block of rows at a
// time. Register the rules (Rule), start a pass (Scan), and for each
// block (Next) read each rule's matching rows (And). The tests read the
// Matcher's kept columns of the query row, so every pass of the same
// row computes each column once; the buffers are the Matcher's and are
// reused from pass to pass. A RowPass is as single-goroutine as its
// Matcher.
type RowPass struct {
	m     *Matcher
	tests []rowTest
	head  []int32    // per attribute: its first test, -1 when none
	lits  []int32    // per rule: its test ids
	rules []passRule // registered rules in order
	bits  []uint64   // a bitset per test, one per rule (And), one for Union

	q, lo, hi, end int // query row, range, current block's end
	grow           bool
	n, words       int // current block's rows and 64-bit words
}

// rowTest is one distinct threshold test. The tests of one attribute
// form a chain from its head; the head carries the chain's largest
// threshold, the least cap its column needs.
type rowTest struct {
	th     float64
	breach bool  // "present and > th" rather than "≤ th"
	rung   int32 // th's rung on the kept column's ladder, or -1
	next   int32 // next test on the attribute, -1 at the end
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
	m.size()
	p := &m.pass
	p.m = m
	lits := 0
	for _, dep := range sigma {
		lits += len(dep.LHS) + 1
	}
	p.tests = slices.Grow(p.tests[:0], lits)
	p.lits = slices.Grow(p.lits[:0], lits)
	p.rules = slices.Grow(p.rules[:0], len(sigma))
	p.head = slices.Grow(p.head[:0], m.v.m)[:m.v.m]
	for a := range p.head {
		p.head[a] = -1
	}
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
	head := p.head[attr]
	for t := head; t >= 0; t = p.tests[t].next {
		if p.tests[t].th == th && p.tests[t].breach == breach {
			return t
		}
	}
	id := int32(len(p.tests))
	p.tests = append(p.tests, rowTest{th: th, breach: breach, rung: p.m.rungOf(attr, th), next: -1})
	if head < 0 {
		p.head[attr] = id
		t := &p.tests[id]
		t.last, t.limit = id, th
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
	for a, head := range p.head {
		if head < 0 {
			continue
		}
		kc := p.m.keptFor(a, p.q, p.tests[head].limit)
		p.m.fill(kc, a, p.lo, p.hi)
		for t := head; t >= 0; t = p.tests[t].next {
			p.fillTest(t, kc)
		}
	}
	return true
}

// bitRows is the number of block bitsets: tests, rules and the union.
func (p *RowPass) bitRows() int { return len(p.tests) + len(p.rules) + 1 }

// Lo returns the first row of the current block: bit k of a block
// bitset is row Lo()+k.
func (p *RowPass) Lo() int { return p.lo }

// Dist returns the kept column value of the query row against row j of
// the current block on attr, which some registered test must read:
// the exact distance wherever a "≤ th" test on attr holds.
func (p *RowPass) Dist(attr, j int) float64 { return p.m.kept[attr].d[j] }

// fillTest sets test t's bitset over the block, in the comparison forms
// of Pattern.Satisfies and Violates. A rung's bitset is a copy of its
// ladder words, shifted to the block (a breach, of the present mask
// less the rung); any other threshold is compared row by row, where a
// missing distance, NaN, fails both "≤ th" and "> th".
func (p *RowPass) fillTest(t int32, kc *keptCol) {
	w := p.row(int(t))
	test := &p.tests[t]
	if r := int(test.rung); r >= 0 {
		words := (kc.n + 63) >> 6
		rung := kc.lad[(r+1)*words : (r+2)*words]
		for wi := range w {
			at := p.lo + wi<<6
			if test.breach {
				w[wi] = wordAt(kc.lad[:words], at) &^ wordAt(rung, at)
			} else {
				w[wi] = wordAt(rung, at)
			}
		}
		if tail := p.n & 63; tail != 0 {
			w[len(w)-1] &= 1<<uint(tail) - 1
		}
		return
	}
	col, th := kc.d[p.lo:p.hi], test.th
	for wi := range w {
		seg := col[wi<<6 : min((wi+1)<<6, len(col))]
		var x uint64
		if test.breach {
			for k, d := range seg {
				if d > th {
					x |= 1 << uint(k)
				}
			}
		} else {
			for k, d := range seg {
				if d <= th {
					x |= 1 << uint(k)
				}
			}
		}
		w[wi] = x
	}
}

// wordAt returns the 64 bits of set starting at bit at; bits past the
// end of set read 0.
func wordAt(set []uint64, at int) uint64 {
	i, s := at>>6, uint(at&63)
	x := set[i] >> s
	if s != 0 && i+1 < len(set) {
		x |= set[i+1] << (64 - s)
	}
	return x
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

// Has reports whether bit k is set in Set(h).
func (p *RowPass) Has(h, k int) bool {
	return p.bits[(len(p.tests)+h)*p.words+k>>6]&(1<<uint(k&63)) != 0
}

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
