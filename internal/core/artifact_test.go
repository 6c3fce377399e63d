package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// table4Base is the Table 4-style workload: the deterministic
// restaurant generator at a fleet-plausible size.
func table4Base(tb testing.TB) *dataset.Relation {
	tb.Helper()
	rel, err := datagen.ByName("restaurant", 120, 2022)
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// table4Sigma mines Σ from the Table 4 base — the compile-time flow a
// replica skips when booting from the artifact.
func table4Sigma(tb testing.TB, base *dataset.Relation) rfd.Set {
	tb.Helper()
	sigma, err := discovery.Discover(base, discovery.Config{MaxThreshold: 3, MaxLHS: 2})
	if err != nil {
		tb.Fatal(err)
	}
	if len(sigma) == 0 {
		tb.Fatal("discovery found no RFDcs; the artifact workload is vacuous")
	}
	return sigma
}

// table4Request copies a few base rows under a different seed and
// knocks cells out, giving the imputer recoverable holes.
func table4Request(tb testing.TB, base *dataset.Relation) *dataset.Relation {
	tb.Helper()
	sample, err := datagen.ByName("restaurant", 8, 7)
	if err != nil {
		tb.Fatal(err)
	}
	req := dataset.NewRelation(base.Schema())
	for i := 0; i < sample.Len(); i++ {
		t := sample.Row(i).Clone()
		t[(i+1)%len(t)] = dataset.Null
		req.MustAppend(t)
	}
	return req
}

// runSession imputes the request and returns the result plus the
// normalized trace JSONL bytes.
func runSession(t *testing.T, sess *Session, req *dataset.Relation) (*Result, []byte) {
	t.Helper()
	tr := obs.NewRingTracer(0, 1)
	traced, err := sess.WithSigma(sess.Sigma())
	if err != nil {
		t.Fatal(err)
	}
	traced.im.opts.Tracer = tr
	res, err := traced.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res, traceJSONL(t, tr)
}

// assertArtifactParity pins the acceptance property: a session loaded
// from the artifact must be indistinguishable — imputations, final
// relation bytes, Stats, trace JSONL — from the freshly compiled
// session it was encoded from.
func assertArtifactParity(t *testing.T, label string, base *dataset.Relation, sigma rfd.Set, req *dataset.Relation) {
	t.Helper()
	fresh, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fresh.EncodeArtifact()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewSessionFromArtifact(data)
	if err != nil {
		t.Fatal(err)
	}

	wantRes, wantTrace := runSession(t, fresh, req)
	gotRes, gotTrace := runSession(t, loaded, req)

	if wantRes.Stats.Imputed == 0 {
		t.Fatalf("%s: workload imputed nothing; the parity check is vacuous", label)
	}
	if !gotRes.Relation.Equal(wantRes.Relation) {
		t.Errorf("%s: imputed relation diverged", label)
	}
	if !reflect.DeepEqual(gotRes.Imputations, wantRes.Imputations) {
		t.Errorf("%s: imputations diverged:\nloaded:  %+v\ncompiled: %+v", label, gotRes.Imputations, wantRes.Imputations)
	}
	wantStats, gotStats := wantRes.Stats, gotRes.Stats
	wantStats.Phases, gotStats.Phases = PhaseTimes{}, PhaseTimes{} // wall clock
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("%s: stats diverged:\nloaded:  %+v\ncompiled: %+v", label, gotStats, wantStats)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("%s: trace JSONL diverged:\n--- loaded ---\n%s\n--- compiled ---\n%s", label, gotTrace, wantTrace)
	}

	// CSV render of the final relation — the byte form a serve replica
	// returns — must match too.
	var wantCSV, gotCSV bytes.Buffer
	if err := dataset.WriteCSV(&wantCSV, wantRes.Relation); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(&gotCSV, gotRes.Relation); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Errorf("%s: CSV bytes diverged", label)
	}

	// The loaded session must carry the artifact's metadata.
	ai := loaded.Artifact()
	if ai == nil {
		t.Fatalf("%s: loaded session has no artifact info", label)
	}
	if ai.FormatVersion != artifact.FormatVersion || ai.Tuples != base.Len() ||
		ai.Arity != base.Schema().Len() || ai.Rules != len(sigma) || ai.Bytes != len(data) {
		t.Errorf("%s: artifact info %+v disagrees with workload", label, ai)
	}
	if enc := fresh.Artifact(); enc == nil || *enc != *ai {
		t.Errorf("%s: encoder-side artifact info %+v != loader-side %+v", label, enc, ai)
	}
}

func TestArtifactRoundTripTable2(t *testing.T) {
	base := table2(t)
	assertArtifactParity(t, "table2", base, figure1Sigma(t, base.Schema()), sessionRequest(t))
}

func TestArtifactRoundTripTable4(t *testing.T) {
	base := table4Base(t)
	assertArtifactParity(t, "table4", base, table4Sigma(t, base), table4Request(t, base))
}

// TestArtifactFileRoundTrip: SaveArtifactFile + LoadSession is the
// compile-subcommand-to-serve-replica path.
func TestArtifactFileRoundTrip(t *testing.T) {
	base := table2(t)
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table2.rnv")
	if err := sess.SaveArtifactFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSession(path)
	if err != nil {
		t.Fatal(err)
	}
	req := sessionRequest(t)
	want, err := sess.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Relation.Equal(want.Relation) {
		t.Error("file round-trip diverged")
	}
}

// TestArtifactSelfContainedRejected: a nil-base session has no compiled
// state to persist.
func TestArtifactSelfContainedRejected(t *testing.T) {
	sess, err := NewSession(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.EncodeArtifact(); err == nil {
		t.Fatal("nil-base EncodeArtifact did not error")
	}
}

// TestArtifactGoldenChecksum pins the deterministic-encoding guarantee
// end to end: compiling the Table 4 testdata twice yields byte-identical
// artifacts, and their checksum matches the committed golden value, so
// any unnoticed encoding change (map-order leak, slab reorder, header
// drift) fails loudly. Regenerate intentionally with:
//
//	go test ./internal/core/ -run Golden -update-golden
func TestArtifactGoldenChecksum(t *testing.T) {
	base := table4Base(t)
	sigma := table4Sigma(t, base)
	encode := func() []byte {
		sess, err := NewSession(base, sigma)
		if err != nil {
			t.Fatal(err)
		}
		data, err := sess.EncodeArtifact()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := encode(), encode()
	if !bytes.Equal(first, second) {
		t.Fatal("two compiles of the Table 4 testdata encoded differently")
	}

	sum := binary.LittleEndian.Uint64(first[len(first)-8:])
	got := fmt.Sprintf("crc64:%016x bytes:%d\n", sum, len(first))
	golden := filepath.Join("testdata", "artifact_table4.checksum")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden checksum missing (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("artifact encoding drifted from golden:\ngot  %swant %s", got, want)
	}
}

// resealArtifact recomputes the declared size and trailer checksum so a
// mutation survives the outer integrity checks and exercises the layer
// under it.
func resealArtifact(data []byte) []byte {
	binary.LittleEndian.PutUint64(data[12:], uint64(len(data)))
	sum := crc64.Checksum(data[:len(data)-8], crc64.MakeTable(crc64.ECMA))
	binary.LittleEndian.PutUint64(data[len(data)-8:], sum)
	return data
}

// TestArtifactDecodeTypedErrors drives the full session decoder with
// truncated, bit-flipped, and version-skewed artifacts: every failure
// must be one of the typed sentinels.
func TestArtifactDecodeTypedErrors(t *testing.T) {
	base := table2(t)
	sess, err := NewSession(base, figure1Sigma(t, base.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	good, err := sess.EncodeArtifact()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(d []byte) []byte { return nil }, artifact.ErrTruncated},
		{"bad magic", func(d []byte) []byte { d[3] = '?'; return d }, artifact.ErrBadMagic},
		{"version skew", func(d []byte) []byte {
			binary.LittleEndian.PutUint16(d[4:], 99)
			return d
		}, artifact.ErrVersion},
		{"format v1", func(d []byte) []byte {
			// Version 1 carried the candidate-index section; its files are
			// refused, not half-read.
			binary.LittleEndian.PutUint16(d[4:], 1)
			return resealArtifact(d)
		}, artifact.ErrVersion},
		{"truncated half", func(d []byte) []byte { return d[:len(d)/2] }, artifact.ErrTruncated},
		{"bit flip", func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }, artifact.ErrChecksum},
		{"resealed bit flip", func(d []byte) []byte {
			d[len(d)/2] ^= 0x40
			return resealArtifact(d)
		}, nil}, // any typed error (or a survivable flip) is acceptable
	}
	typed := []error{artifact.ErrBadMagic, artifact.ErrVersion, artifact.ErrChecksum,
		artifact.ErrTruncated, artifact.ErrCorrupt}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), good...))
			_, err := NewSessionFromArtifact(data)
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("NewSessionFromArtifact = %v, want %v", err, tc.want)
				}
				return
			}
			if err == nil {
				return
			}
			for _, sentinel := range typed {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		})
	}
}

// FuzzArtifactDecode: the decoder must return typed errors — never
// panic, never over-allocate — on arbitrary mutations of a valid
// artifact (and on arbitrary garbage).
func FuzzArtifactDecode(f *testing.F) {
	base := table2(f)
	sess, err := NewSession(base, figure1Sigma(f, base.Schema()))
	if err != nil {
		f.Fatal(err)
	}
	good, err := sess.EncodeArtifact()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:24])
	f.Add([]byte("RNVA"))
	f.Add([]byte{})
	skew := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(skew[4:], 2)
	f.Add(skew)
	flip := append([]byte(nil), good...)
	flip[len(flip)/3] ^= 0x80
	f.Add(resealArtifact(flip))

	typed := []error{artifact.ErrBadMagic, artifact.ErrVersion, artifact.ErrChecksum,
		artifact.ErrTruncated, artifact.ErrCorrupt}
	f.Fuzz(func(t *testing.T, data []byte) {
		sess, err := NewSessionFromArtifact(data)
		if err == nil {
			// A surviving mutation must have produced a coherent session.
			if sess.cur.Load() == nil {
				t.Fatal("decode succeeded with no shared state")
			}
			return
		}
		for _, sentinel := range typed {
			if errors.Is(err, sentinel) {
				return
			}
		}
		t.Fatalf("untyped decode error: %v", err)
	})
}
