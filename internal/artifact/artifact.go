// Package artifact is the binary codec under the compiled-session
// artifact format: a versioned, checksummed container of flat slabs
// addressed by an offset table, designed so a serving replica can load
// a precompiled session near-instantly — full-read or mmap-style — and
// skip RFD discovery and engine compilation entirely.
//
// Layout (all integers little-endian, independent of the host):
//
//	offset 0   magic      [4]byte "RNVA"
//	       4   version    uint16 — the format version, bumped on any
//	                      incompatible layout change
//	       6   endian     uint8 0x01 (little); a big-endian writer would
//	                      stamp 0x02, and this decoder rejects it
//	       7   reserved   uint8 0
//	       8   sections   uint32 — entry count of the section table
//	      12   size       uint64 — total file length, trailer included
//	      20   table      sections × {id uint32, pad uint32,
//	                                  offset uint64, length uint64}
//	       …   payload    the sections' slabs, each 8-byte aligned
//	  size-8   checksum   uint64 — CRC-64/ECMA over bytes [0, size-8)
//
// Sections carry application state (columnar view, interning tables,
// the Σ rule set — see the Sec* ids); inside a section every slab is
// count-prefixed and fixed-width, so references between structures are
// integer offsets, never pointers, and a decoder can either copy slabs
// out or keep reading the mapped bytes in place.
//
// Decoding is defensive: every count is validated against the bytes
// actually remaining before any allocation, so a truncated or
// bit-flipped input fails with a typed error (ErrBadMagic, ErrVersion,
// ErrChecksum, ErrTruncated, ErrCorrupt) instead of panicking or
// over-allocating.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
)

// FormatVersion is the artifact layout version this package writes and
// the only version it accepts back. Version 2 dropped version 1's
// candidate-index section (id 5), which no reader used.
const FormatVersion uint16 = 2

// magic identifies a RENUVER artifact file.
var magic = [4]byte{'R', 'N', 'V', 'A'}

// endianLittle is the endianness marker the writer stamps; the format
// is defined little-endian regardless of the host.
const endianLittle uint8 = 1

// headerLen is the fixed prefix before the section table.
const headerLen = 20

// trailerLen is the checksum suffix.
const trailerLen = 8

// tableEntryLen is one section-table entry.
const tableEntryLen = 24

// Section ids of the compiled-session artifact. Ids are stable across
// format versions and never reused (id 5 was version 1's candidate
// index); a reader asks for the sections it understands and ignores the
// rest.
const (
	// SecMeta is the compiled-session summary (tuple count, arity, rule
	// count) — readable without decoding anything else.
	SecMeta uint32 = 1
	// SecSchema is the relation schema: attribute names and kinds.
	SecSchema uint32 = 2
	// SecColumns is the columnar cell data: per-attribute kind, numeric
	// payload, and interned-string id slabs.
	SecColumns uint32 = 3
	// SecInterners is the per-attribute interning tables: string blobs
	// with offset tables, pre-decoded rune slabs, rune counts, and the
	// PR 6 alphabet masks.
	SecInterners uint32 = 4
	// SecSigma is the Σ rule set (RFDc LHS/RHS constraints).
	SecSigma uint32 = 6
)

// The typed decode failures. Every error returned by Decode and by
// Cursor reads wraps one of these, so callers (and the fuzz harness)
// can classify failures with errors.Is.
var (
	// ErrBadMagic: the input does not start with the artifact magic.
	ErrBadMagic = errors.New("artifact: bad magic")
	// ErrVersion: the input's format version is not FormatVersion.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrChecksum: the whole-file CRC does not match the trailer.
	ErrChecksum = errors.New("artifact: checksum mismatch")
	// ErrTruncated: the input is shorter than its structure declares.
	ErrTruncated = errors.New("artifact: truncated input")
	// ErrCorrupt: a structurally invalid value (overlapping sections,
	// out-of-range offset, impossible count) with a valid checksum.
	ErrCorrupt = errors.New("artifact: corrupt input")
)

// crcTable is the CRC-64/ECMA polynomial table used for the trailer.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Builder assembles an artifact: begin a section, append slabs, begin
// the next, then Finish. Sections are laid out in Begin order; encoders
// must iterate any map state in sorted key order so that encoding the
// same state twice yields byte-identical files.
type Builder struct {
	secs []builderSection
}

type builderSection struct {
	id  uint32
	buf []byte
}

// NewBuilder returns an empty artifact builder.
func NewBuilder() *Builder { return &Builder{} }

// Begin opens a new section; subsequent appends write into it. It
// panics on a duplicate id — section ids are the decoder's only lookup
// key, so a duplicate is always an encoder bug.
func (b *Builder) Begin(id uint32) {
	for _, s := range b.secs {
		if s.id == id {
			panic(fmt.Sprintf("artifact: duplicate section id %d", id))
		}
	}
	b.secs = append(b.secs, builderSection{id: id})
}

func (b *Builder) cur() *builderSection {
	if len(b.secs) == 0 {
		panic("artifact: append before Begin")
	}
	return &b.secs[len(b.secs)-1]
}

// Uint8 appends one byte.
func (b *Builder) Uint8(v uint8) {
	s := b.cur()
	s.buf = append(s.buf, v)
}

// Uint32 appends one 32-bit integer.
func (b *Builder) Uint32(v uint32) {
	s := b.cur()
	s.buf = binary.LittleEndian.AppendUint32(s.buf, v)
}

// Uint64 appends one 64-bit integer.
func (b *Builder) Uint64(v uint64) {
	s := b.cur()
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
}

// Float64 appends one float64 by bit pattern.
func (b *Builder) Float64(v float64) { b.Uint64(math.Float64bits(v)) }

// Bytes appends a count-prefixed byte blob.
func (b *Builder) Bytes(p []byte) {
	b.Uint32(uint32(len(p)))
	s := b.cur()
	s.buf = append(s.buf, p...)
}

// String appends a count-prefixed UTF-8 string.
func (b *Builder) String(v string) {
	b.Uint32(uint32(len(v)))
	s := b.cur()
	s.buf = append(s.buf, v...)
}

// Uint8s appends a count-prefixed byte slab.
func (b *Builder) Uint8s(v []uint8) { b.Bytes(v) }

// Uint32s appends a count-prefixed slab of 32-bit integers.
func (b *Builder) Uint32s(v []uint32) {
	b.Uint32(uint32(len(v)))
	s := b.cur()
	for _, x := range v {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, x)
	}
}

// Int32s appends a count-prefixed slab of signed 32-bit integers.
func (b *Builder) Int32s(v []int32) {
	b.Uint32(uint32(len(v)))
	s := b.cur()
	for _, x := range v {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(x))
	}
}

// Runes appends a count-prefixed slab of runes (int32 code points).
func (b *Builder) Runes(v []rune) {
	b.Uint32(uint32(len(v)))
	s := b.cur()
	for _, x := range v {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, uint32(x))
	}
}

// Uint64s appends a count-prefixed slab of 64-bit integers.
func (b *Builder) Uint64s(v []uint64) {
	b.Uint32(uint32(len(v)))
	s := b.cur()
	for _, x := range v {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, x)
	}
}

// Float64s appends a count-prefixed slab of float64 bit patterns.
func (b *Builder) Float64s(v []float64) {
	b.Uint32(uint32(len(v)))
	s := b.cur()
	for _, x := range v {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, math.Float64bits(x))
	}
}

// Finish lays the sections out after the header and table — each
// aligned to 8 bytes for mmap-friendly in-place reads — and returns the
// complete artifact with its checksum trailer.
func (b *Builder) Finish() []byte {
	tableLen := len(b.secs) * tableEntryLen
	off := headerLen + tableLen
	type span struct{ off, length int }
	spans := make([]span, len(b.secs))
	for i, s := range b.secs {
		off = align8(off)
		spans[i] = span{off: off, length: len(s.buf)}
		off += len(s.buf)
	}
	size := align8(off) + trailerLen

	out := make([]byte, size)
	copy(out, magic[:])
	binary.LittleEndian.PutUint16(out[4:], FormatVersion)
	out[6] = endianLittle
	out[7] = 0
	binary.LittleEndian.PutUint32(out[8:], uint32(len(b.secs)))
	binary.LittleEndian.PutUint64(out[12:], uint64(size))
	for i, s := range b.secs {
		e := headerLen + i*tableEntryLen
		binary.LittleEndian.PutUint32(out[e:], s.id)
		binary.LittleEndian.PutUint32(out[e+4:], 0)
		binary.LittleEndian.PutUint64(out[e+8:], uint64(spans[i].off))
		binary.LittleEndian.PutUint64(out[e+16:], uint64(spans[i].length))
		copy(out[spans[i].off:], s.buf)
	}
	sum := crc64.Checksum(out[:size-trailerLen], crcTable)
	binary.LittleEndian.PutUint64(out[size-trailerLen:], sum)
	return out
}

func align8(n int) int { return (n + 7) &^ 7 }

// Reader is a decoded artifact: the verified header plus the section
// table. Section payloads are not copied — cursors read the underlying
// byte slice in place, which is what makes an mmap-backed decode
// zero-copy until a consumer materializes a slab.
type Reader struct {
	data     []byte
	sections map[uint32]span
	checksum uint64
	version  uint16
}

type span struct{ off, length uint64 }

// Decode verifies the input (magic, version, declared size, checksum,
// section table) and returns a Reader over it. The input is retained,
// not copied; callers backing it with an mmap must keep the mapping
// alive for the Reader's lifetime.
func Decode(data []byte) (*Reader, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: % x", ErrBadMagic, data[:4])
	}
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	version := binary.LittleEndian.Uint16(data[4:])
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: got v%d, support v%d", ErrVersion, version, FormatVersion)
	}
	if data[6] != endianLittle {
		return nil, fmt.Errorf("%w: endianness marker %d", ErrCorrupt, data[6])
	}
	size := binary.LittleEndian.Uint64(data[12:])
	if size != uint64(len(data)) {
		return nil, fmt.Errorf("%w: declared %d bytes, have %d", ErrTruncated, size, len(data))
	}
	want := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	got := crc64.Checksum(data[:len(data)-trailerLen], crcTable)
	if got != want {
		return nil, fmt.Errorf("%w: computed %016x, trailer %016x", ErrChecksum, got, want)
	}

	count := binary.LittleEndian.Uint32(data[8:])
	tableEnd := uint64(headerLen) + uint64(count)*tableEntryLen
	payloadEnd := uint64(len(data) - trailerLen)
	if tableEnd > payloadEnd {
		return nil, fmt.Errorf("%w: section table for %d entries exceeds file", ErrCorrupt, count)
	}
	r := &Reader{
		data:     data,
		sections: make(map[uint32]span, count),
		checksum: want,
		version:  version,
	}
	for i := uint32(0); i < count; i++ {
		e := headerLen + int(i)*tableEntryLen
		id := binary.LittleEndian.Uint32(data[e:])
		off := binary.LittleEndian.Uint64(data[e+8:])
		length := binary.LittleEndian.Uint64(data[e+16:])
		if off < tableEnd || off > payloadEnd || length > payloadEnd-off {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d+%d) outside payload", ErrCorrupt, id, off, off, length)
		}
		if _, dup := r.sections[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section id %d", ErrCorrupt, id)
		}
		r.sections[id] = span{off: off, length: length}
	}
	return r, nil
}

// Version returns the artifact's format version.
func (r *Reader) Version() uint16 { return r.version }

// Checksum returns the artifact's verified CRC-64 trailer.
func (r *Reader) Checksum() uint64 { return r.checksum }

// Size returns the artifact's total byte length.
func (r *Reader) Size() int { return len(r.data) }

// Section returns a cursor over the identified section's payload, or
// ok=false when the artifact does not carry it.
func (r *Reader) Section(id uint32) (*Cursor, bool) {
	s, ok := r.sections[id]
	if !ok {
		return nil, false
	}
	return &Cursor{data: r.data[s.off : s.off+s.length]}, true
}

// Cursor reads one section's slabs in sequence. Errors are sticky:
// after the first failed read every subsequent read returns zero values
// and Err reports the failure, so decoders can be written straight-line
// and check once at the end. All counts are validated against the bytes
// actually remaining before any allocation.
type Cursor struct {
	data []byte
	off  int
	err  error
}

// Err returns the first read failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Remaining returns the unread byte count.
func (c *Cursor) Remaining() int { return len(c.data) - c.off }

// fail records the sticky error.
func (c *Cursor) fail(err error) { c.err = err }

// need checks that n more bytes exist.
func (c *Cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if n < 0 || c.Remaining() < n {
		c.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, c.Remaining()))
		return false
	}
	return true
}

// Uint8 reads one byte.
func (c *Cursor) Uint8() uint8 {
	if !c.need(1) {
		return 0
	}
	v := c.data[c.off]
	c.off++
	return v
}

// Uint32 reads one 32-bit integer.
func (c *Cursor) Uint32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v
}

// Uint64 reads one 64-bit integer.
func (c *Cursor) Uint64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v
}

// Float64 reads one float64 bit pattern.
func (c *Cursor) Float64() float64 { return math.Float64frombits(c.Uint64()) }

// count reads a slab length prefix and validates it against the
// remaining bytes at elemSize bytes per element — the over-allocation
// guard: a corrupt count can never make the decoder allocate more than
// the input's own size.
func (c *Cursor) count(elemSize int) (int, bool) {
	n := int(c.Uint32())
	if c.err != nil {
		return 0, false
	}
	if n < 0 || c.Remaining() < n*elemSize {
		c.fail(fmt.Errorf("%w: slab of %d × %d bytes, %d remaining", ErrTruncated, n, elemSize, c.Remaining()))
		return 0, false
	}
	return n, true
}

// Bytes reads a count-prefixed blob, returning a subslice of the
// underlying data (no copy). Callers must treat it as read-only.
func (c *Cursor) Bytes() []byte {
	n, ok := c.count(1)
	if !ok {
		return nil
	}
	v := c.data[c.off : c.off+n : c.off+n]
	c.off += n
	return v
}

// String reads a count-prefixed UTF-8 string (one copy).
func (c *Cursor) String() string { return string(c.Bytes()) }

// Uint8s reads a count-prefixed byte slab (no copy; read-only).
func (c *Cursor) Uint8s() []uint8 { return c.Bytes() }

// Uint32s reads a count-prefixed slab of 32-bit integers.
func (c *Cursor) Uint32s() []uint32 {
	n, ok := c.count(4)
	if !ok {
		return nil
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint32(c.data[c.off:])
		c.off += 4
	}
	return v
}

// Int32s reads a count-prefixed slab of signed 32-bit integers.
func (c *Cursor) Int32s() []int32 {
	n, ok := c.count(4)
	if !ok {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(c.data[c.off:]))
		c.off += 4
	}
	return v
}

// Runes reads a count-prefixed slab of runes.
func (c *Cursor) Runes() []rune {
	n, ok := c.count(4)
	if !ok {
		return nil
	}
	v := make([]rune, n)
	for i := range v {
		v[i] = rune(binary.LittleEndian.Uint32(c.data[c.off:]))
		c.off += 4
	}
	return v
}

// Uint64s reads a count-prefixed slab of 64-bit integers.
func (c *Cursor) Uint64s() []uint64 {
	n, ok := c.count(8)
	if !ok {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(c.data[c.off:])
		c.off += 8
	}
	return v
}

// Float64s reads a count-prefixed slab of float64 bit patterns.
func (c *Cursor) Float64s() []float64 {
	n, ok := c.count(8)
	if !ok {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.data[c.off:]))
		c.off += 8
	}
	return v
}

// Corruptf builds an ErrCorrupt-wrapping error for section decoders
// that find structurally impossible values behind a valid checksum.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}
