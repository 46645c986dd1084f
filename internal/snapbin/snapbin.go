// Package snapbin is the canonical binary codec every snapshotable
// component encodes its state with. The format is deliberately dumb:
// little-endian fixed-width integers and length-prefixed byte strings,
// no compression, no reflection, no alignment padding. Canonical means
// there is exactly one encoding for a given logical state — encoders
// must therefore iterate any hash-table-backed state in a sorted order —
// which is what makes the snapshot digest stable across engines,
// GOMAXPROCS and host architectures.
//
// The decoder is written to survive arbitrary bytes (it backs a fuzz
// target): every read bounds-checks against the remaining input, and
// length prefixes are validated against the bytes actually present
// before any allocation, so a hostile length cannot balloon memory.
// Errors are sticky: after the first failure every subsequent read
// returns zero values and Err reports the original failure.
package snapbin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt reports undecodable input: a truncated buffer, a length
// prefix pointing past the end, or trailing garbage.
var ErrCorrupt = errors.New("corrupt snapshot encoding")

// Enc accumulates a canonical encoding.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded bytes accumulated so far.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the current encoded length.
func (e *Enc) Len() int { return len(e.buf) }

// Grow makes room for at least n more bytes, so an encoder that knows
// its size up front writes without regrowing. It only sets capacity: a
// wrong hint costs a regrow or some slack, never a different byte.
func (e *Enc) Grow(n int) {
	if n > cap(e.buf)-len(e.buf) {
		e.buf = append(make([]byte, 0, len(e.buf)+n), e.buf...)
	}
}

// Reset empties the encoder and keeps its capacity.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 as its IEEE 754 bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Blob appends a length-prefixed byte string.
func (e *Enc) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Dec decodes a canonical encoding with sticky error semantics.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over b. The decoder never retains or mutates b
// beyond slicing it.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the first decoding failure, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns how many undecoded bytes are left.
func (d *Dec) Remaining() int { return len(d.b) }

// Close verifies the input was consumed exactly.
func (d *Dec) Close() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		d.fail("trailing bytes", len(d.b))
	}
	return d.err
}

func (d *Dec) fail(what string, n int) {
	if d.err == nil {
		d.err = fmt.Errorf("snapbin: %s (%d bytes): %w", what, n, ErrCorrupt)
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail("short input", n)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean; any value other than 0 or 1 is corrupt.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool", 1)
		return false
	}
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float64 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Blob reads a length-prefixed byte string. The returned slice aliases
// the input; callers that retain it must copy.
func (d *Dec) Blob() []byte {
	n := int(d.U32())
	return d.take(n)
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Blob()) }

// Count reads a u32 element count and validates it against the bytes
// remaining, given a minimum encoded size per element. This is the
// allocation guard: a decoder sizing a slice from Count can never
// allocate more than the input itself could justify.
func (d *Dec) Count(minElemBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n < 0 || n > len(d.b)/minElemBytes {
		d.fail("implausible element count", n)
		return 0
	}
	return n
}
