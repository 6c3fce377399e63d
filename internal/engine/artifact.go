package engine

// Artifact codec for the compiled engine state: the columnar View form
// of the base relation and the per-attribute interning tables (string
// blobs, pre-decoded rune slabs, rune lengths, alphabet masks).
// Everything is written as flat count-prefixed slabs in row or id order
// with offset-based references — string i of an interner is the blob
// window [offsets[i], offsets[i+1]), its runes the window of the flat
// rune slab starting at the running sum of lens — so the encoding is
// deterministic and a decode reconstructs the pointer graph from
// integers without chasing any serialized pointers.

import (
	"math"

	"repro/internal/artifact"
	"repro/internal/dataset"
)

// EncodeTo writes the compiled base state — schema, columns, interning
// tables — into the builder as the SecSchema, SecColumns, and
// SecInterners sections.
func (s *Shared) EncodeTo(b *artifact.Builder) {
	b.Begin(artifact.SecSchema)
	sch := s.rel.Schema()
	b.Uint32(uint32(sch.Len()))
	for a := 0; a < sch.Len(); a++ {
		at := sch.Attr(a)
		b.String(at.Name)
		b.Uint8(uint8(at.Kind))
	}

	b.Begin(artifact.SecColumns)
	b.Uint64(uint64(s.n))
	b.Uint32(uint32(s.m))
	for a := 0; a < s.m; a++ {
		c := &s.cols[a]
		kinds := make([]uint8, s.n)
		for i, k := range c.kind {
			kinds[i] = uint8(k)
		}
		b.Uint8s(kinds)
		b.Float64s(c.num)
		b.Int32s(c.sid)
	}

	b.Begin(artifact.SecInterners)
	b.Uint32(uint32(s.m))
	for a := 0; a < s.m; a++ {
		encodeInterner(b, s.interns[a])
	}
}

// encodeInterner writes one interning table as five slabs: the
// concatenated string blob, the blob offset table (count+1 entries),
// the rune lengths, the alphabet masks, and one flat rune slab holding
// every value's pre-decoded runes back to back.
func encodeInterner(b *artifact.Builder, in *interner) {
	var blob []byte
	offsets := make([]uint32, len(in.strs)+1)
	for i, s := range in.strs {
		blob = append(blob, s...)
		offsets[i+1] = uint32(len(blob))
	}
	lens := make([]int32, len(in.lens))
	total := 0
	for i, l := range in.lens {
		lens[i] = int32(l)
		total += l
	}
	flat := make([]rune, 0, total)
	for _, r := range in.runes {
		flat = append(flat, r...)
	}
	b.Bytes(blob)
	b.Uint32s(offsets)
	b.Int32s(lens)
	b.Uint64s(in.masks)
	b.Runes(flat)
}

// decodeInterner reads one interning table. The string blob is
// converted to a Go string once; every interned value is a substring
// window into it, and every rune slice a window into the one flat rune
// slab — the same single-arena shape the encoder flattened.
func decodeInterner(c *artifact.Cursor) (*interner, error) {
	blobBytes := c.Bytes()
	offsets := c.Uint32s()
	lens32 := c.Int32s()
	masks := c.Uint64s()
	flat := c.Runes()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if len(offsets) == 0 {
		return nil, artifact.Corruptf("interner: empty offset table")
	}
	count := len(offsets) - 1
	if len(lens32) != count || len(masks) != count {
		return nil, artifact.Corruptf("interner: %d offsets but %d lens, %d masks", count, len(lens32), len(masks))
	}
	if offsets[0] != 0 || offsets[count] != uint32(len(blobBytes)) {
		return nil, artifact.Corruptf("interner: offset table does not span the %d-byte blob", len(blobBytes))
	}
	if count == 0 {
		if len(flat) != 0 {
			return nil, artifact.Corruptf("interner: %d runes behind zero values", len(flat))
		}
		// Match a freshly compiled empty interner exactly (nil slabs,
		// ids map allocated lazily on first intern).
		return &interner{}, nil
	}
	blob := string(blobBytes)
	in := &interner{
		ids:   make(map[string]int32, count),
		strs:  make([]string, count),
		runes: make([][]rune, count),
		lens:  make([]int, count),
		masks: masks,
	}
	pos := 0
	for i := 0; i < count; i++ {
		if offsets[i+1] < offsets[i] {
			return nil, artifact.Corruptf("interner: offset table not monotonic at %d", i)
		}
		s := blob[offsets[i]:offsets[i+1]]
		if _, dup := in.ids[s]; dup {
			return nil, artifact.Corruptf("interner: duplicate value %q", s)
		}
		in.ids[s] = int32(i)
		in.strs[i] = s
		l := int(lens32[i])
		if l < 0 || pos+l > len(flat) {
			return nil, artifact.Corruptf("interner: rune window %d+%d exceeds slab of %d", pos, l, len(flat))
		}
		in.runes[i] = flat[pos : pos+l : pos+l]
		in.lens[i] = l
		pos += l
	}
	if pos != len(flat) {
		return nil, artifact.Corruptf("interner: %d runes consumed of %d in slab", pos, len(flat))
	}
	return in, nil
}

// DecodeShared reconstructs a compiled base — columns, interning
// tables, and the backing relation — from an artifact's SecSchema,
// SecColumns, and SecInterners sections. Every structural cross-reference (kinds, interned ids, slab
// lengths) is validated, so a checksum-valid but semantically corrupt
// artifact fails with a typed error instead of compiling an
// inconsistent engine.
func DecodeShared(r *artifact.Reader) (*Shared, error) {
	sc, ok := r.Section(artifact.SecSchema)
	if !ok {
		return nil, artifact.Corruptf("missing schema section")
	}
	m := int(sc.Uint32())
	if sc.Err() != nil {
		return nil, sc.Err()
	}
	if m < 0 || m > sc.Remaining() {
		return nil, artifact.Corruptf("schema: arity %d exceeds section", m)
	}
	attrs := make([]dataset.Attribute, m)
	seen := make(map[string]bool, m)
	for a := 0; a < m; a++ {
		name := sc.String()
		kind := dataset.Kind(sc.Uint8())
		if sc.Err() != nil {
			return nil, sc.Err()
		}
		if name == "" || seen[name] {
			return nil, artifact.Corruptf("schema: empty or duplicate attribute %q", name)
		}
		if kind > dataset.KindBool {
			return nil, artifact.Corruptf("schema: attribute %q has unknown kind %d", name, kind)
		}
		seen[name] = true
		attrs[a] = dataset.Attribute{Name: name, Kind: kind}
	}
	schema := dataset.NewSchema(attrs...)

	cc, ok := r.Section(artifact.SecColumns)
	if !ok {
		return nil, artifact.Corruptf("missing columns section")
	}
	n := int(cc.Uint64())
	if int(cc.Uint32()) != m || cc.Err() != nil {
		if cc.Err() != nil {
			return nil, cc.Err()
		}
		return nil, artifact.Corruptf("columns: arity disagrees with schema")
	}
	if n < 0 || n > cc.Remaining() {
		return nil, artifact.Corruptf("columns: row count %d exceeds section", n)
	}
	cols := make([]col, m)
	for a := 0; a < m; a++ {
		kinds := cc.Uint8s()
		num := cc.Float64s()
		sid := cc.Int32s()
		if err := cc.Err(); err != nil {
			return nil, err
		}
		if len(kinds) != n || len(num) != n || len(sid) != n {
			return nil, artifact.Corruptf("columns: attr %d slabs disagree with row count %d", a, n)
		}
		ck := make([]dataset.Kind, n)
		for i, k := range kinds {
			ck[i] = dataset.Kind(k)
		}
		cols[a] = col{kind: ck, num: num, sid: sid}
	}

	ic, ok := r.Section(artifact.SecInterners)
	if !ok {
		return nil, artifact.Corruptf("missing interners section")
	}
	if int(ic.Uint32()) != m {
		if ic.Err() != nil {
			return nil, ic.Err()
		}
		return nil, artifact.Corruptf("interners: arity disagrees with schema")
	}
	interns := make([]*interner, m)
	for a := 0; a < m; a++ {
		in, err := decodeInterner(ic)
		if err != nil {
			return nil, err
		}
		interns[a] = in
	}

	// The relation is rebuilt cell by cell through Set rather than
	// Append: Append enforces schema kinds, but a live base may carry
	// cross-kind cells written through View.Set (imputations from
	// cross-typed donors), and the decode must reproduce the encoded
	// state exactly.
	rel := dataset.NewRelation(schema)
	for i := 0; i < n; i++ {
		if err := rel.Append(make(dataset.Tuple, m)); err != nil {
			return nil, artifact.Corruptf("row %d: %v", i, err)
		}
		for a := 0; a < m; a++ {
			v, err := cellValue(&cols[a], interns[a], i, a)
			if err != nil {
				return nil, err
			}
			rel.Set(i, a, v)
		}
	}
	return &Shared{rel: rel, n: n, m: m, cols: cols, interns: interns}, nil
}

// cellValue reconstructs the dataset.Value behind one columnar cell,
// validating that the cell is expressible — the decoded relation must
// re-compile to exactly these columns.
func cellValue(c *col, in *interner, row, attr int) (dataset.Value, error) {
	switch k := c.kind[row]; k {
	case dataset.KindNull:
		return dataset.Null, nil
	case dataset.KindString:
		sid := c.sid[row]
		if sid < 0 || int(sid) >= len(in.strs) {
			return dataset.Value{}, artifact.Corruptf("cell (%d, %d): string id %d of %d", row, attr, sid, len(in.strs))
		}
		return dataset.NewString(in.strs[sid]), nil
	case dataset.KindInt:
		f := c.num[row]
		if f != math.Trunc(f) || math.Abs(f) >= 1<<63 {
			return dataset.Value{}, artifact.Corruptf("cell (%d, %d): non-integral int payload %v", row, attr, f)
		}
		return dataset.NewInt(int64(f)), nil
	case dataset.KindFloat:
		f := c.num[row]
		if math.IsNaN(f) {
			return dataset.Value{}, artifact.Corruptf("cell (%d, %d): NaN float payload", row, attr)
		}
		return dataset.NewFloat(f), nil
	case dataset.KindBool:
		f := c.num[row]
		if f != 0 && f != 1 {
			return dataset.Value{}, artifact.Corruptf("cell (%d, %d): bool payload %v", row, attr, f)
		}
		return dataset.NewBool(f == 1), nil
	default:
		return dataset.Value{}, artifact.Corruptf("cell (%d, %d): unknown kind %d", row, attr, k)
	}
}
