package distance

import "repro/internal/obs"

// Myers' bit-parallel Levenshtein (in Hyyrö's formulation): the pattern
// p — the shorter string, at most 64 runes — is encoded as one uint64
// DP column of vertical deltas (pv/mv = positions where the column
// increases/decreases downward), and each text rune advances the whole
// column with a constant number of word operations. The running score
// is the DP cell D[m][j], i.e. the edit distance between the full
// pattern and the first j text runes; after the last text rune it is
// the exact Levenshtein distance.
//
// Word layout: bit i of every vector corresponds to pattern position
// i+1 (row i+1 of the classic matrix). peq[c] has bit i set iff
// p[i] == c. For m < 64 the high bits are dead: pv starts with only the
// low m bits set, and the update keeps every live vector masked to
// those bits, so no explicit masking is needed in the loop.

// buildPeq fills the arena's pattern-equality table for p. ASCII runes
// index the stamped array directly; anything else goes to the spill
// list (at most 64 entries, linear-probed). Epoch stamping makes the
// rebuild O(m) with no clearing.
func (sc *Scratch) buildPeq(p []rune) {
	sc.epoch++
	if sc.epoch == 0 {
		// uint32 wrap: stale stamps could collide with the new epoch, so
		// reset them once every 2^32 rebuilds.
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	sc.xkeys = sc.xkeys[:0]
	sc.xvals = sc.xvals[:0]
	for i, r := range p {
		bit := uint64(1) << uint(i)
		if r >= 0 && r < asciiPeq {
			if sc.stamp[r] != sc.epoch {
				sc.stamp[r] = sc.epoch
				sc.peq[r] = 0
			}
			sc.peq[r] |= bit
			continue
		}
		found := false
		for k, kr := range sc.xkeys {
			if kr == r {
				sc.xvals[k] |= bit
				found = true
				break
			}
		}
		if !found {
			sc.xkeys = append(sc.xkeys, r)
			sc.xvals = append(sc.xvals, bit)
		}
	}
}

// peqOf looks up the pattern-equality word for one text rune.
func (sc *Scratch) peqOf(r rune) uint64 {
	if r >= 0 && r < asciiPeq {
		if sc.stamp[r] == sc.epoch {
			return sc.peq[r]
		}
		return 0
	}
	for k, kr := range sc.xkeys {
		if kr == r {
			return sc.xvals[k]
		}
	}
	return 0
}

// myersDistance returns the exact edit distance between pattern p
// (1 <= len(p) <= 64) and text t.
func (sc *Scratch) myersDistance(p, t []rune) int {
	m := len(p)
	sc.buildPeq(p)
	pv := ^uint64(0)
	if m < 64 {
		pv = 1<<uint(m) - 1
	}
	var mv uint64
	score := m
	last := uint64(1) << uint(m-1)
	for _, c := range t {
		eq := sc.peqOf(c)
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		}
		if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// myersCapped returns the edit distance between pattern p
// (1 <= len(p) <= 64) and text t and true when it is at most max, false
// otherwise, preserving the banded kernel's threshold early-exit: the
// score moves by at most one per text rune, so once score minus the
// remaining rune count exceeds the bound the answer is settled.
func (sc *Scratch) myersCapped(p, t []rune, max int) (int, bool) {
	m := len(p)
	sc.buildPeq(p)
	pv := ^uint64(0)
	if m < 64 {
		pv = 1<<uint(m) - 1
	}
	var mv uint64
	score := m
	last := uint64(1) << uint(m-1)
	n := len(t)
	for j, c := range t {
		eq := sc.peqOf(c)
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		}
		if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
		if score-(n-j-1) > max {
			// Even a run of matches to the end cannot pull the score
			// back under the bound.
			obs.GlobalAdd(obs.CtrLevenshteinEarlyExits, 1)
			return 0, false
		}
	}
	return score, score <= max
}
