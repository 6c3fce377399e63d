package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dataset"
)

// encodeShared assembles a full artifact around one Shared.
func encodeShared(s *Shared) []byte {
	b := artifact.NewBuilder()
	s.EncodeTo(b)
	return b.Finish()
}

// TestSharedRoundTrip: decode(encode(Shared)) reproduces the relation,
// the columnar cells, the interning tables, and every pairwise
// distance; re-encoding the decoded state is byte-identical.
func TestSharedRoundTrip(t *testing.T) {
	rel := randomMixedRelation(rand.New(rand.NewSource(11)), 40)
	s := Precompile(rel)
	data := encodeShared(s)

	r, err := artifact.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeShared(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() || got.Arity() != s.Arity() {
		t.Fatalf("decoded %dx%d, want %dx%d", got.Len(), got.Arity(), s.Len(), s.Arity())
	}
	if !got.Relation().Equal(s.Relation()) {
		t.Error("decoded relation diverged")
	}
	if !got.Relation().Schema().Equal(s.Relation().Schema()) {
		t.Error("decoded schema diverged")
	}
	for a := 0; a < s.m; a++ {
		if !reflect.DeepEqual(got.cols[a], s.cols[a]) {
			t.Errorf("attr %d columns diverged", a)
		}
		want, have := s.interns[a], got.interns[a]
		if !reflect.DeepEqual(have.strs, want.strs) ||
			!reflect.DeepEqual(have.lens, want.lens) ||
			!reflect.DeepEqual(have.masks, want.masks) ||
			!reflect.DeepEqual(have.runes, want.runes) ||
			!reflect.DeepEqual(have.ids, want.ids) {
			t.Errorf("attr %d interner diverged", a)
		}
	}

	// Every pairwise distance must agree (the decoded view computes from
	// the decoded runes).
	vw, vg := s.View(), got.View()
	for a := 0; a < s.m; a++ {
		for i := 0; i < s.n; i++ {
			for j := i; j < s.n; j++ {
				if dw, dg := vw.Distance(a, i, j), vg.Distance(a, i, j); !sameDist(dw, dg) {
					t.Fatalf("Distance(%d, %d, %d) = %v decoded, %v compiled", a, i, j, dg, dw)
				}
			}
		}
	}

	if !bytes.Equal(data, encodeShared(got)) {
		t.Error("re-encoding the decoded state is not byte-identical")
	}
}

// TestDeterministicSharedEncoding: encoding the same compiled state
// twice is byte-identical.
func TestDeterministicSharedEncoding(t *testing.T) {
	build := func() []byte {
		rel := randomMixedRelation(rand.New(rand.NewSource(37)), 60)
		s := Precompile(rel)
		return encodeShared(s)
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("two compiles of the same relation encoded differently")
	}
}

// TestDecodeSharedCorrupt: checksum-valid but semantically corrupt
// payloads fail with ErrCorrupt, never a panic or an inconsistent
// engine.
func TestDecodeSharedCorrupt(t *testing.T) {
	rel := randomMixedRelation(rand.New(rand.NewSource(7)), 12)
	s := Precompile(rel)

	// rebuild re-encodes the state with one section swapped out.
	rebuild := func(mutate func(b *artifact.Builder, sec uint32) bool) []byte {
		b := artifact.NewBuilder()
		if !mutate(b, artifact.SecSchema) {
			b.Begin(artifact.SecSchema)
			sch := s.rel.Schema()
			b.Uint32(uint32(sch.Len()))
			for a := 0; a < sch.Len(); a++ {
				b.String(sch.Attr(a).Name)
				b.Uint8(uint8(sch.Attr(a).Kind))
			}
		}
		full := artifact.NewBuilder()
		s.EncodeTo(full)
		fullData := full.Finish()
		r, err := artifact.Decode(fullData)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range []uint32{artifact.SecColumns, artifact.SecInterners} {
			if mutate(b, sec) {
				continue
			}
			c, _ := r.Section(sec)
			b.Begin(sec)
			raw := make([]uint8, c.Remaining())
			for i := range raw {
				raw[i] = c.Uint8()
			}
			for _, x := range raw {
				b.Uint8(x)
			}
		}
		return b.Finish()
	}

	cases := []struct {
		name string
		mut  func(b *artifact.Builder, sec uint32) bool
	}{
		{"duplicate schema attr", func(b *artifact.Builder, sec uint32) bool {
			if sec != artifact.SecSchema {
				return false
			}
			b.Begin(sec)
			b.Uint32(2)
			b.String("A")
			b.Uint8(uint8(dataset.KindString))
			b.String("A")
			b.Uint8(uint8(dataset.KindString))
			return true
		}},
		{"unknown kind", func(b *artifact.Builder, sec uint32) bool {
			if sec != artifact.SecSchema {
				return false
			}
			b.Begin(sec)
			b.Uint32(1)
			b.String("A")
			b.Uint8(99)
			return true
		}},
		{"missing columns", func(b *artifact.Builder, sec uint32) bool {
			if sec != artifact.SecColumns {
				return false
			}
			b.Begin(sec) // present but empty: truncated reads
			return true
		}},
		{"missing interners", func(b *artifact.Builder, sec uint32) bool {
			if sec != artifact.SecInterners {
				return false
			}
			b.Begin(sec)
			b.Uint32(0) // arity 0 disagrees with schema
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := rebuild(tc.mut)
			r, err := artifact.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeShared(r); !errors.Is(err, artifact.ErrCorrupt) && !errors.Is(err, artifact.ErrTruncated) {
				t.Fatalf("DecodeShared = %v, want ErrCorrupt or ErrTruncated", err)
			}
		})
	}
}
