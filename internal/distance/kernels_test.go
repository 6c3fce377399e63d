package distance

import (
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
)

// This file is the permanent differential harness for the string
// kernels: every kernel (Myers bit-parallel, banded DP, and the
// package's automatic dispatch) is proven byte-identical to a naive
// full-matrix reference oracle, on exhaustively enumerated small
// inputs, randomized inputs crossing the 64-rune word boundary, and
// Unicode edge cases. Any future kernel lands by being added here.

// naiveLevenshtein is the O(nm) full-matrix reference oracle: no
// banding, no early exit, no bit tricks — as close to the textbook
// recurrence as it gets. buf is an optional reusable matrix row
// backing; pass nil for a one-off call.
func naiveLevenshtein(ra, rb []rune, buf []int) (int, []int) {
	n, m := len(ra), len(rb)
	need := (n + 1) * (m + 1)
	if cap(buf) < need {
		buf = make([]int, need)
	}
	d := buf[:need]
	at := func(i, j int) int { return i*(m+1) + j }
	for i := 0; i <= n; i++ {
		d[at(i, 0)] = i
	}
	for j := 0; j <= m; j++ {
		d[at(0, j)] = j
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			v := d[at(i-1, j)] + 1
			if w := d[at(i, j-1)] + 1; w < v {
				v = w
			}
			if w := d[at(i-1, j-1)] + cost; w < v {
				v = w
			}
			d[at(i, j)] = v
		}
	}
	return d[at(n, m)], buf
}

// kernelsUnderTest enumerates every kernel configuration the harness
// must prove in agreement.
var kernelsUnderTest = []struct {
	name string
	k    Kernel
}{
	{"auto", KernelAuto},
	{"myers", KernelMyers},
	{"banded", KernelBanded},
}

// forceKernel installs a kernel selection for the duration of the test.
func forceKernel(t testing.TB, k Kernel) {
	t.Helper()
	prev := SetKernel(k)
	t.Cleanup(func() { SetKernel(prev) })
}

// enumerate returns every string over alphabet with length <= maxLen,
// in length-major lexicographic order.
func enumerate(alphabet []rune, maxLen int) [][]rune {
	out := [][]rune{{}}
	prev := [][]rune{{}}
	for l := 1; l <= maxLen; l++ {
		var next [][]rune
		for _, p := range prev {
			for _, c := range alphabet {
				w := make([]rune, len(p)+1)
				copy(w, p)
				w[len(p)] = c
				next = append(next, w)
			}
		}
		out = append(out, next...)
		prev = next
	}
	return out
}

// TestExhaustiveKernelAgreement enumerates every pair of strings up to
// length 6 over a 3-symbol alphabet (length 5 in -short mode) and
// asserts that the Myers kernel, the banded DP, and the automatic
// dispatch all agree with the naive oracle on the exact distance, and
// that the bounded predicate agrees exactly at the threshold boundary
// (d-1, d, d+1) under every kernel, as does the prepared kernel under
// every kernel, prepared once per query on an arena of its own and on
// one whose table other kernel calls rebuild in between. Off-by-one
// word-boundary bugs that random fuzzing can miss have nowhere to hide
// in an exhaustive sweep.
func TestExhaustiveKernelAgreement(t *testing.T) {
	maxLen := 6
	if testing.Short() {
		maxLen = 5
	}
	words := enumerate([]rune{'a', 'b', 'c'}, maxLen)
	t.Logf("%d words, %d pairs", len(words), len(words)*len(words))

	scMyers, scBanded, scAuto, scPrep := NewScratch(), NewScratch(), NewScratch(), NewScratch()
	var buf []int
	var d int
	for _, ra := range words {
		SetKernel(KernelAuto)
		scPrep.Prepare(ra, RuneMask(ra))
		scAuto.Prepare(ra, RuneMask(ra))
		for _, rb := range words {
			d, buf = naiveLevenshtein(ra, rb, buf)

			SetKernel(KernelMyers)
			if got := scMyers.LevenshteinRunes(ra, rb); got != d {
				t.Fatalf("myers(%q,%q) = %d, oracle %d", string(ra), string(rb), got, d)
			}
			SetKernel(KernelBanded)
			if got := scBanded.LevenshteinRunes(ra, rb); got != d {
				t.Fatalf("banded(%q,%q) = %d, oracle %d", string(ra), string(rb), got, d)
			}
			SetKernel(KernelAuto)
			if got := scAuto.LevenshteinRunes(ra, rb); got != d {
				t.Fatalf("auto(%q,%q) = %d, oracle %d", string(ra), string(rb), got, d)
			}

			for _, cfg := range kernelsUnderTest {
				SetKernel(cfg.k)
				for _, th := range []int{d - 1, d, d + 1} {
					if got, want := scAuto.WithinRunes(ra, rb, th), d <= th; got != want {
						t.Fatalf("%s: Within(%q,%q,%d) = %v, exact %d",
							cfg.name, string(ra), string(rb), th, got, d)
					}
					checkCapped(t, cfg.name, scAuto, ra, rb, th, d)
				}
				scMyers.Prepare(ra, RuneMask(ra))
				checkPrepared(t, cfg.name, scMyers, ra, rb, d)
			}
			SetKernel(KernelAuto)
			checkPrepared(t, "auto", scPrep, ra, rb, d)
			checkPrepared(t, "auto, rebuilt", scAuto, ra, rb, d)
		}
	}
	SetKernel(KernelAuto)
}

// checkPrepared asserts the prepared kernel, with ra the last query
// prepared on sc, against the exact distance d at the bounds 0, d-1, d
// and d+1: in bound iff d <= th, and then the score is d itself.
func checkPrepared(t *testing.T, kernel string, sc *Scratch, ra, rb []rune, d int) {
	t.Helper()
	for _, th := range []int{0, d - 1, d, d + 1} {
		got, ok := sc.CappedPrepared(rb, RuneMask(rb), th)
		if ok != (d <= th) || (ok && got != d) {
			t.Fatalf("%s: CappedPrepared(%q | %q, %d) = (%d, %v), exact %d",
				kernel, string(ra), string(rb), th, got, ok, d)
		}
	}
}

// checkCapped asserts the capped kernel against the exact distance d:
// in bound iff d <= th, and then the score is d itself.
func checkCapped(t *testing.T, kernel string, sc *Scratch, ra, rb []rune, th, d int) {
	t.Helper()
	got, ok := sc.CappedRunesMasked(ra, rb, RuneMask(ra), RuneMask(rb), th)
	if ok != (d <= th) || (ok && got != d) {
		t.Fatalf("%s: Capped(%q,%q,%d) = (%d, %v), exact %d", kernel, string(ra), string(rb), th, got, ok, d)
	}
}

// TestKernelDifferentialRandom drives random pairs through every kernel
// across the whole length spectrum, deliberately crossing the 64-rune
// word boundary so the Myers/fallback seam is exercised, with mixed
// ASCII and multi-byte alphabets; then the prepared kernel with queries
// of exactly 63, 64 and 65 runes over the spill alphabet.
func TestKernelDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabets := [][]rune{
		{'a', 'b'},
		{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'},
		{'α', 'β', 'γ', 'é', '界', 'a', 'b'},
	}
	iters := 4000
	if testing.Short() {
		iters = 800
	}
	randWord := func(alpha []rune) []rune {
		// Lengths cluster around the word boundary half the time.
		var n int
		if rng.Intn(2) == 0 {
			n = 56 + rng.Intn(18) // 56..73
		} else {
			n = rng.Intn(30)
		}
		w := make([]rune, n)
		for i := range w {
			w[i] = alpha[rng.Intn(len(alpha))]
		}
		return w
	}
	sc := NewScratch()
	var buf []int
	var d int
	for i := 0; i < iters; i++ {
		alpha := alphabets[rng.Intn(len(alphabets))]
		ra, rb := randWord(alpha), randWord(alpha)
		d, buf = naiveLevenshtein(ra, rb, buf)
		for _, cfg := range kernelsUnderTest {
			SetKernel(cfg.k)
			if got := sc.LevenshteinRunes(ra, rb); got != d {
				t.Fatalf("%s(%q,%q) = %d, oracle %d", cfg.name, string(ra), string(rb), got, d)
			}
			for _, th := range []int{0, d - 1, d, d + 1} {
				if got, want := sc.WithinRunes(ra, rb, th), d <= th; got != want {
					t.Fatalf("%s: Within(%q,%q,%d) = %v, exact %d",
						cfg.name, string(ra), string(rb), th, got, d)
				}
				checkCapped(t, cfg.name, sc, ra, rb, th, d)
			}
			sc.Prepare(ra, RuneMask(ra))
			checkPrepared(t, cfg.name, sc, ra, rb, d)
		}
		SetKernel(KernelAuto)
	}
	// One prepared query against many texts, with other kernel calls on
	// the arena in between.
	spill := alphabets[2]
	for _, n := range []int{63, 64, 65} {
		ra := make([]rune, n)
		for i := range ra {
			ra[i] = spill[rng.Intn(len(spill))]
		}
		sc.Prepare(ra, RuneMask(ra))
		for i := 0; i < iters/20; i++ {
			rb := randWord(spill)
			d, buf = naiveLevenshtein(ra, rb, buf)
			checkPrepared(t, "auto", sc, ra, rb, d)
			checkCapped(t, "auto", sc, ra, rb, d, d)
		}
	}
}

// TestKernelUnicodeEdges pins the Unicode cases the word layout is most
// likely to get wrong: multi-byte runes (one symbol each), combining
// marks (distinct symbols from the precomposed form), strings of
// exactly 63, 64, and 65 runes straddling the one-word limit, and
// invalid UTF-8 (compared byte-wise by the symbol model).
func TestKernelUnicodeEdges(t *testing.T) {
	cases := []struct{ a, b string }{
		{"héllo", "hello"},
		{"café", "café"}, // precomposed é vs e + combining acute
		{"́́", "́"},
		{"日本語のテキスト", "日本语のテキスト"},
		{"αβγδ", "αβγ"},
		{strings.Repeat("a", 63), strings.Repeat("a", 63) + "b"},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("a", 64), strings.Repeat("a", 63) + "b"},
		{strings.Repeat("a", 65), strings.Repeat("a", 64)},
		{strings.Repeat("x", 64), strings.Repeat("y", 65)},
		{strings.Repeat("α", 63) + "β", strings.Repeat("α", 64)},
		{strings.Repeat("界", 65), strings.Repeat("界", 64) + "間"},
		{"abc\xff\xfe", "abc\xff"}, // invalid UTF-8: byte symbols
		{"\xc3\x28", "\xc3\xa9"},   // truncated vs valid 2-byte sequence
		{"", strings.Repeat("z", 70)},
	}
	sc := NewScratch()
	var buf []int
	var d int
	for _, c := range cases {
		ra, rb := Runes(c.a), Runes(c.b)
		d, buf = naiveLevenshtein(ra, rb, buf)
		for _, cfg := range kernelsUnderTest {
			SetKernel(cfg.k)
			if got := sc.Levenshtein(c.a, c.b); got != d {
				t.Errorf("%s(%q,%q) = %d, oracle %d", cfg.name, c.a, c.b, got, d)
			}
			if got := Levenshtein(c.a, c.b); got != d {
				t.Errorf("package %s(%q,%q) = %d, oracle %d", cfg.name, c.a, c.b, got, d)
			}
			for _, th := range []int{d - 1, d, d + 1} {
				if got, want := LevenshteinWithin(c.a, c.b, th), d <= th; got != want {
					t.Errorf("%s: Within(%q,%q,%d) = %v, exact %d", cfg.name, c.a, c.b, th, got, d)
				}
			}
		}
		SetKernel(KernelAuto)
	}
}

// TestMaskLowerBoundSound proves the alphabet-mask pre-filter never
// overshoots the true distance on random inputs — the property that
// makes rejecting on the mask bound safe.
func TestMaskLowerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alpha := []rune{'a', 'b', 'c', 'x', 'y', 'z', 'é', '界', '́'}
	var buf []int
	var d int
	for i := 0; i < 3000; i++ {
		ra := make([]rune, rng.Intn(20))
		rb := make([]rune, rng.Intn(20))
		for j := range ra {
			ra[j] = alpha[rng.Intn(len(alpha))]
		}
		for j := range rb {
			rb[j] = alpha[rng.Intn(len(alpha))]
		}
		d, buf = naiveLevenshtein(ra, rb, buf)
		if lb := MaskLowerBound(RuneMask(ra), RuneMask(rb)); lb > d {
			t.Fatalf("mask bound %d exceeds distance %d for %q %q", lb, d, string(ra), string(rb))
		}
	}
}

// TestKernelZeroAllocs is the allocation guard BENCH_core surfaced the
// need for: the exact kernel, the bounded predicate, and the
// pre-decoded forms must not allocate per call, for ASCII and
// multi-byte inputs alike, on both the pooled package entry points and
// a dedicated Scratch. GC is paused so the scratch pool cannot be
// drained mid-measurement.
func TestKernelZeroAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sc := NewScratch()
	ra, rb := Runes("310/456-0488"), Runes("310-392-9025")
	ga, gb := Runes("héllo wörld"), Runes("hello world")
	cases := []struct {
		name string
		fn   func()
	}{
		{"Levenshtein", func() { Levenshtein("310/456-0488", "310-392-9025") }},
		{"LevenshteinUnicode", func() { Levenshtein("héllo wörld", "hello world") }},
		{"LevenshteinWithin", func() { LevenshteinWithin("310/456-0488", "310-392-9025", 3) }},
		{"LevenshteinRunes", func() { LevenshteinRunes(ra, rb) }},
		{"LevenshteinRunesWithin", func() { LevenshteinRunesWithin(ra, rb, 3) }},
		{"Scratch.Levenshtein", func() { sc.Levenshtein("Chinois Main", "C. Main") }},
		{"Scratch.LevenshteinRunes", func() { sc.LevenshteinRunes(ga, gb) }},
		{"Scratch.Within", func() { sc.Within("Chinois Main", "C. Main", 4) }},
		{"Scratch.WithinRunes", func() { sc.WithinRunes(ga, gb, 2) }},
		{"Scratch.WithinRunesMasked", func() {
			sc.WithinRunesMasked(ra, rb, RuneMask(ra), RuneMask(rb), 5)
		}},
		{"Scratch.CappedRunesMasked", func() {
			sc.CappedRunesMasked(ga, gb, RuneMask(ga), RuneMask(gb), 5)
		}},
		{"Scratch.CappedPrepared", func() {
			sc.Prepare(ga, RuneMask(ga))
			sc.CappedPrepared(gb, RuneMask(gb), 5)
		}},
	}
	for _, c := range cases {
		c.fn() // warm the arena (decode buffers, DP row)
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", c.name, n)
		}
	}
}

// TestLongStringFallback pins the dispatch rule: both sides over 64
// runes runs the banded DP (counted as such), while a short pattern
// against a long text stays bit-parallel.
func TestLongStringFallback(t *testing.T) {
	long1 := strings.Repeat("abcd", 20) // 80 runes
	long2 := strings.Repeat("abcf", 20) // 80 runes
	ra, rb := Runes(long1), Runes(long2)
	var buf []int
	d, _ := naiveLevenshtein(ra, rb, buf)
	sc := NewScratch()
	if got := sc.Levenshtein(long1, long2); got != d {
		t.Fatalf("fallback distance %d, oracle %d", d, got)
	}
	short := "abcdabcd"
	dm, _ := naiveLevenshtein(Runes(short), ra, nil)
	if got := sc.Levenshtein(short, long1); got != dm {
		t.Fatalf("short-vs-long distance %d, oracle %d", got, dm)
	}
	if got := sc.Within(long1, long2, d); !got {
		t.Fatal("Within at exact distance must hold through the fallback")
	}
	if got := sc.Within(long1, long2, d-1); got {
		t.Fatal("Within below exact distance must fail through the fallback")
	}
}

func BenchmarkKernels(b *testing.B) {
	pairs := []struct {
		name string
		a, b string
	}{
		{"phone12", "310/456-0488", "310-392-9025"},
		{"name", "Chinois Main", "C. Main"},
		{"long64", strings.Repeat("abcdefgh", 8), strings.Repeat("abcdefgx", 8)},
	}
	for _, k := range kernelsUnderTest {
		for _, p := range pairs {
			b.Run(k.name+"/"+p.name, func(b *testing.B) {
				forceKernel(b, k.k)
				sc := NewScratch()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc.Levenshtein(p.a, p.b)
				}
			})
		}
	}
}

func BenchmarkWithinPrefilter(b *testing.B) {
	b.Run("mask-reject", func(b *testing.B) {
		sc := NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.Within("a very long restaurant name here", "completely different street", 2)
		}
	})
	b.Run("accept", func(b *testing.B) {
		sc := NewScratch()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.Within("310/456-0488", "310-392-9025", 8)
		}
	})
}
