package par

import (
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	for _, v := range []int{0, 1, 7, Max} {
		if err := Check("Workers", v); err != nil {
			t.Errorf("Check(%d) = %v, want nil", v, err)
		}
	}
	for _, v := range []int{-1, -100, Max + 1, 1 << 20} {
		if err := Check("Workers", v); err == nil {
			t.Errorf("Check(%d) accepted", v)
		}
	}
}

func TestCheckNamesTheKnob(t *testing.T) {
	err := Check("-donor-shards", -3)
	if err == nil || !strings.Contains(err.Error(), "-donor-shards") {
		t.Errorf("error %v does not name the knob", err)
	}
}

func TestParallelismValidate(t *testing.T) {
	if err := (Parallelism{}).Validate(); err != nil {
		t.Errorf("zero value invalid: %v", err)
	}
	if err := (Parallelism{Workers: 4, Shards: 8}).Validate(); err != nil {
		t.Errorf("valid pair rejected: %v", err)
	}
	cases := []struct {
		p    Parallelism
		want string
	}{
		{Parallelism{Workers: -1}, "Workers"},
		{Parallelism{Shards: Max + 1}, "Shards"},
		{Parallelism{Shards: -2}, "Shards"},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want error naming %s", c.p, err, c.want)
		}
	}
}

func TestChunkRanges(t *testing.T) {
	cases := []struct {
		n, workers int
		wantChunks int
	}{
		{10, 3, 3},
		{10, 1, 1},
		{3, 8, 3},
		{0, 4, 0},
		{7, 0, 1},
	}
	for _, c := range cases {
		if got := Chunks(c.n, c.workers); len(got) != c.wantChunks {
			t.Errorf("Chunks(%d,%d) = %v, want %d chunks", c.n, c.workers, got, c.wantChunks)
		}
	}
}

// TestChunkRangesCover: chunking always tiles [0, n) exactly, in order.
func TestChunkRangesCover(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 10, 100} {
		for _, w := range []int{0, 1, 2, 3, 4, 8, 200} {
			next := 0
			for _, rg := range Chunks(n, w) {
				if rg[0] != next || rg[1] <= rg[0] {
					t.Fatalf("Chunks(%d, %d) = bad range %v", n, w, rg)
				}
				next = rg[1]
			}
			if next != n {
				t.Fatalf("Chunks(%d, %d) covers [0, %d), want [0, %d)", n, w, next, n)
			}
		}
	}
}
