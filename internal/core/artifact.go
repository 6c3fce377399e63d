package core

// Compiled-session artifacts: a Session with a precompiled base can be
// serialized into the versioned binary format of internal/artifact and
// reconstructed on another replica without re-running RFD discovery or
// the engine compile — the flat columnar slabs, interning tables and Σ
// load directly. A loaded session produces byte-identical imputations,
// Stats, and traces versus a from-scratch compile.

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/artifact"
	"repro/internal/engine"
	"repro/internal/rfd"
)

// ArtifactInfo summarizes a compiled-session artifact — the metadata a
// serving replica reports (version output, the artifact-info gauge)
// without decoding the payload sections.
type ArtifactInfo struct {
	// FormatVersion is the artifact layout version.
	FormatVersion uint16
	// Checksum is the whole-file CRC-64 trailer.
	Checksum uint64
	// Tuples is the compiled base instance's row count.
	Tuples int
	// Arity is the schema arity.
	Arity int
	// Rules is |Σ|, the serialized dependency count.
	Rules int
	// Bytes is the artifact's total encoded length.
	Bytes int
}

// String renders the metadata in the one-line form the CLI logs.
func (ai *ArtifactInfo) String() string {
	return fmt.Sprintf("format=v%d checksum=%016x tuples=%d arity=%d rules=%d bytes=%d",
		ai.FormatVersion, ai.Checksum, ai.Tuples, ai.Arity, ai.Rules, ai.Bytes)
}

// Artifact returns the metadata of the artifact this session was loaded
// from or last encoded to, or nil for a session that has never touched
// one.
func (s *Session) Artifact() *ArtifactInfo { return s.art }

// encodeSigma writes Σ as the SecSigma section: a dependency count,
// then per dependency the LHS constraint list and the RHS constraint,
// each as (attribute, threshold-bits).
func encodeSigma(b *artifact.Builder, sigma rfd.Set) {
	b.Begin(artifact.SecSigma)
	b.Uint32(uint32(len(sigma)))
	for _, dep := range sigma {
		b.Uint32(uint32(len(dep.LHS)))
		for _, c := range dep.LHS {
			b.Uint32(uint32(c.Attr))
			b.Float64(c.Threshold)
		}
		b.Uint32(uint32(dep.RHS.Attr))
		b.Float64(dep.RHS.Threshold)
	}
}

// decodeSigma reads Σ back, revalidating every dependency through
// rfd.New and the schema-arity check — a corrupt rule set fails decode
// rather than surfacing later as an impossible imputation.
func decodeSigma(r *artifact.Reader, arity int) (rfd.Set, error) {
	c, ok := r.Section(artifact.SecSigma)
	if !ok {
		return nil, artifact.Corruptf("missing sigma section")
	}
	n := int(c.Uint32())
	if c.Err() != nil {
		return nil, c.Err()
	}
	if n < 0 || n > c.Remaining() {
		return nil, artifact.Corruptf("sigma: %d rules exceed section", n)
	}
	sigma := make(rfd.Set, 0, n)
	for i := 0; i < n; i++ {
		nl := int(c.Uint32())
		if c.Err() != nil {
			return nil, c.Err()
		}
		if nl < 0 || nl > c.Remaining() {
			return nil, artifact.Corruptf("sigma: rule %d LHS of %d exceeds section", i, nl)
		}
		lhs := make([]rfd.Constraint, nl)
		for j := range lhs {
			lhs[j] = rfd.Constraint{Attr: int(c.Uint32()), Threshold: c.Float64()}
		}
		rhs := rfd.Constraint{Attr: int(c.Uint32()), Threshold: c.Float64()}
		if err := c.Err(); err != nil {
			return nil, err
		}
		for _, con := range append(lhs, rhs) {
			if math.IsNaN(con.Threshold) || math.IsInf(con.Threshold, 0) {
				return nil, artifact.Corruptf("sigma: rule %d has non-finite threshold", i)
			}
		}
		dep, err := rfd.New(lhs, rhs)
		if err != nil {
			return nil, artifact.Corruptf("sigma: rule %d: %v", i, err)
		}
		sigma = append(sigma, dep)
	}
	if err := validateSigma(sigma, arity); err != nil {
		return nil, artifact.Corruptf("sigma: %v", err)
	}
	return sigma, nil
}

// EncodeArtifact serializes the session's compiled state — base
// columns, interning tables, and Σ — into one artifact, all read from
// the one epoch the call pins (an artifact can never mix two epochs'
// state, even while deltas apply concurrently). Encoding the same
// session twice at the same epoch yields byte-identical output.
// Self-contained sessions (nil base) have no compiled state to persist
// and return an error.
func (s *Session) EncodeArtifact() ([]byte, error) {
	ep := s.pin()
	if ep == nil {
		return nil, fmt.Errorf("core: session has no base instance to encode")
	}
	defer ep.unpin()
	b := artifact.NewBuilder()
	b.Begin(artifact.SecMeta)
	b.Uint64(uint64(ep.shared.Len()))
	b.Uint32(uint32(ep.shared.Arity()))
	b.Uint32(uint32(len(ep.sigma)))
	ep.shared.EncodeTo(b)
	encodeSigma(b, ep.sigma)
	data := b.Finish()
	r, err := artifact.Decode(data)
	if err != nil {
		// Decoding bytes we just built cannot fail unless the builder is
		// broken; surface it rather than shipping a bad artifact.
		return nil, fmt.Errorf("core: self-check of encoded artifact: %w", err)
	}
	s.art = &ArtifactInfo{
		FormatVersion: r.Version(),
		Checksum:      r.Checksum(),
		Tuples:        ep.shared.Len(),
		Arity:         ep.shared.Arity(),
		Rules:         len(ep.sigma),
		Bytes:         len(data),
	}
	return data, nil
}

// SaveArtifact writes the encoded artifact to w.
func (s *Session) SaveArtifact(w io.Writer) error {
	data, err := s.EncodeArtifact()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SaveArtifactFile writes the encoded artifact to path atomically: a
// temp file in the same directory, renamed into place, so a crashed
// compile never leaves a torn artifact for a replica to reject.
func (s *Session) SaveArtifactFile(path string) error {
	data, err := s.EncodeArtifact()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepathDir(path), ".rnv-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// filepathDir is filepath.Dir without pulling path/filepath into every
// core consumer — artifacts use forward-slash-free local paths too.
func filepathDir(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			if i == 0 {
				return path[:1]
			}
			return path[:i]
		}
	}
	return "."
}

// NewSessionFromArtifact reconstructs a serving Session from an encoded
// artifact, skipping RFD discovery and the engine compile entirely: the
// columnar base, interning tables, and Σ decode straight from the flat
// slabs. The data slice is read during decode and not retained (string
// blobs are copied once per attribute), so an mmap-backed caller may
// unmap after this returns. Options are validated exactly as NewSession
// validates them.
func NewSessionFromArtifact(data []byte, opts ...Option) (*Session, error) {
	r, err := artifact.Decode(data)
	if err != nil {
		return nil, err
	}
	shared, err := engine.DecodeShared(r)
	if err != nil {
		return nil, err
	}
	sigma, err := decodeSigma(r, shared.Arity())
	if err != nil {
		return nil, err
	}
	mc, ok := r.Section(artifact.SecMeta)
	if !ok {
		return nil, artifact.Corruptf("missing meta section")
	}
	tuples, arity, rules := int(mc.Uint64()), int(mc.Uint32()), int(mc.Uint32())
	if err := mc.Err(); err != nil {
		return nil, err
	}
	if tuples != shared.Len() || arity != shared.Arity() || rules != len(sigma) {
		return nil, artifact.Corruptf("meta (%d tuples, arity %d, %d rules) disagrees with payload (%d, %d, %d)",
			tuples, arity, rules, shared.Len(), shared.Arity(), len(sigma))
	}
	im := New(sigma, opts...)
	if err := im.opts.Validate(); err != nil {
		return nil, err
	}
	s := &Session{
		im: im,
		art: &ArtifactInfo{
			FormatVersion: r.Version(),
			Checksum:      r.Checksum(),
			Tuples:        tuples,
			Arity:         arity,
			Rules:         rules,
			Bytes:         len(data),
		},
	}
	s.newEpoch(shared, sigma)
	return s, nil
}

// LoadSession reads a compiled-session artifact from disk and
// reconstructs the Session — the replica boot path behind
// `renuver serve -artifact`.
func LoadSession(path string, opts ...Option) (*Session, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewSessionFromArtifact(data, opts...)
}
