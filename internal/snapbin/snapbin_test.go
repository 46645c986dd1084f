package snapbin

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
)

// codecCase is something to append and how to read it back as a
// comparable value.
type codecCase struct {
	name string
	enc  func(*Enc)
	dec  func(*Dec) any
	want any
}

// primitives is one case per Enc/Dec method pair.
var primitives = []codecCase{
	{"U8", func(e *Enc) { e.U8(0xAB) }, func(d *Dec) any { return d.U8() }, uint8(0xAB)},
	{"Bool/true", func(e *Enc) { e.Bool(true) }, func(d *Dec) any { return d.Bool() }, true},
	{"Bool/false", func(e *Enc) { e.Bool(false) }, func(d *Dec) any { return d.Bool() }, false},
	{"U16", func(e *Enc) { e.U16(0xBEEF) }, func(d *Dec) any { return d.U16() }, uint16(0xBEEF)},
	{"U32", func(e *Enc) { e.U32(0xDEADBEEF) }, func(d *Dec) any { return d.U32() }, uint32(0xDEADBEEF)},
	{"U64", func(e *Enc) { e.U64(math.MaxUint64 - 1) }, func(d *Dec) any { return d.U64() }, uint64(math.MaxUint64 - 1)},
	{"I64", func(e *Enc) { e.I64(math.MinInt64 + 7) }, func(d *Dec) any { return d.I64() }, int64(math.MinInt64 + 7)},
	{"F64", func(e *Enc) { e.F64(-0.1) }, func(d *Dec) any { return d.F64() }, -0.1},
	{"F64/inf", func(e *Enc) { e.F64(math.Inf(1)) }, func(d *Dec) any { return d.F64() }, math.Inf(1)},
	{"Blob", func(e *Enc) { e.Blob([]byte{1, 2, 3}) }, func(d *Dec) any { return string(d.Blob()) }, "\x01\x02\x03"},
	{"Blob/empty", func(e *Enc) { e.Blob(nil) }, func(d *Dec) any { return string(d.Blob()) }, ""},
	{"Str", func(e *Enc) { e.Str("shMap") }, func(d *Dec) any { return d.Str() }, "shMap"},
	{"Count", func(e *Enc) { e.U32(2); e.U64(1); e.U64(2) }, func(d *Dec) any {
		n := d.Count(8)
		for i := 0; i < n; i++ {
			d.U64()
		}
		return n
	}, 2},
}

// inSequence is every primitive back to back in one buffer, so field
// boundaries are exercised too; it decodes to the number of mismatches.
var inSequence = codecCase{
	name: "all in sequence",
	enc: func(e *Enc) {
		for _, p := range primitives {
			p.enc(e)
		}
	},
	dec: func(d *Dec) any {
		bad := 0
		for _, p := range primitives {
			if p.dec(d) != p.want {
				bad++
			}
		}
		return bad
	},
	want: 0,
}

// TestRoundTrip: every primitive decodes to the value encoded and
// consumes its encoding exactly; every strict prefix of the encoding
// ends in ErrCorrupt without panicking.
func TestRoundTrip(t *testing.T) {
	for _, p := range slices.Concat(primitives, []codecCase{inSequence}) {
		t.Run(p.name, func(t *testing.T) {
			var e Enc
			p.enc(&e)
			if e.Len() != len(e.Bytes()) {
				t.Errorf("Len %d, Bytes has %d", e.Len(), len(e.Bytes()))
			}
			d := NewDec(e.Bytes())
			if got := p.dec(d); got != p.want {
				t.Errorf("decoded %v, want %v", got, p.want)
			}
			if err := d.Close(); err != nil {
				t.Errorf("valid encoding refused: %v", err)
			}
			for n := 0; n < e.Len(); n++ {
				d := NewDec(e.Bytes()[:n])
				p.dec(d)
				if err := d.Close(); !errors.Is(err, ErrCorrupt) {
					t.Errorf("prefix of %d/%d bytes: err %v, want ErrCorrupt", n, e.Len(), err)
				}
			}
		})
	}
}

func TestBoolRejectsOtherBytes(t *testing.T) {
	for _, b := range []byte{2, 0x80, 0xFF} {
		d := NewDec([]byte{b})
		if d.Bool() {
			t.Errorf("byte %#x decoded as true", b)
		}
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("byte %#x: err %v, want ErrCorrupt", b, d.Err())
		}
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	d := NewDec([]byte{1, 0, 0, 0, 9})
	if got := d.U32(); got != 1 {
		t.Fatalf("U32 = %d", got)
	}
	if d.Remaining() != 1 {
		t.Fatalf("Remaining = %d, want 1", d.Remaining())
	}
	if err := d.Close(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Close with a trailing byte: err %v, want ErrCorrupt", err)
	}
}

// TestCountGuardsAllocation: a count is accepted only when the bytes
// left could hold that many elements of the stated minimum size.
func TestCountGuardsAllocation(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n            uint32
		payload      int
		minElemBytes int
		ok           bool
	}{
		{"exact fit", 4, 32, 8, true},
		{"room to spare", 3, 32, 8, true},
		{"one too many", 5, 32, 8, false},
		{"partial last element", 4, 31, 8, false},
		{"zero of nothing", 0, 0, 8, true},
		{"hostile length", math.MaxUint32, 16, 1, false},
		{"min size below one counts as one", 16, 16, 0, true},
		{"min size below one still bounds", 17, 16, -3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Enc
			e.U32(tc.n)
			d := NewDec(append(e.Bytes(), make([]byte, tc.payload)...))
			got := d.Count(tc.minElemBytes)
			if tc.ok {
				if d.Err() != nil || got != int(tc.n) {
					t.Errorf("Count = %d, err %v; want %d", got, d.Err(), tc.n)
				}
				return
			}
			if got != 0 || !errors.Is(d.Err(), ErrCorrupt) {
				t.Errorf("Count = %d, err %v; want 0, ErrCorrupt", got, d.Err())
			}
		})
	}
}

// TestErrorsAreSticky: after the first failure every read returns the
// zero value, consumes nothing, and Err keeps reporting that failure.
func TestErrorsAreSticky(t *testing.T) {
	d := NewDec([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8})
	d.U8()
	d.Blob() // length 0x04030201 points far past the end
	first := d.Err()
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("err %v, want ErrCorrupt", first)
	}
	left := d.Remaining()
	if d.U8() != 0 || d.Bool() || d.U16() != 0 || d.U32() != 0 || d.U64() != 0 || d.I64() != 0 ||
		d.F64() != 0 || d.Blob() != nil || d.Str() != "" || d.Count(1) != 0 {
		t.Error("a read after the failure returned a non-zero value")
	}
	if d.Remaining() != left {
		t.Errorf("reads after the failure consumed %d bytes", left-d.Remaining())
	}
	if d.Err() != first || d.Close() != first {
		t.Errorf("the first failure was replaced: Err %v, Close %v", d.Err(), d.Close())
	}
}

// FuzzSnapbinDec drives the decoder with an arbitrary read script over
// arbitrary bytes. It must never panic or read past the input; failures
// are ErrCorrupt and sticky; and because the format is canonical,
// re-encoding what was read reproduces exactly the bytes consumed.
func FuzzSnapbinDec(f *testing.F) {
	var e Enc
	inSequence.enc(&e)
	f.Add(e.Bytes(), []byte{0, 1, 1, 2, 3, 4, 5, 6, 6, 7, 7, 8, 9, 4, 4})
	f.Add([]byte{2}, []byte{1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}, []byte{9})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F}, []byte{7})
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})

	f.Fuzz(func(t *testing.T, data, script []byte) {
		d := NewDec(data)
		var re Enc
		for _, op := range script {
			before := d.Remaining()
			switch op % 10 {
			case 0:
				re.U8(d.U8())
			case 1:
				re.Bool(d.Bool())
			case 2:
				re.U16(d.U16())
			case 3:
				re.U32(d.U32())
			case 4:
				re.U64(d.U64())
			case 5:
				re.I64(d.I64())
			case 6:
				re.F64(d.F64())
			case 7:
				re.Blob(d.Blob())
			case 8:
				re.Str(d.Str())
			case 9:
				minElem := int(op/10) + 1
				n := d.Count(minElem)
				if n*minElem > d.Remaining() {
					t.Fatalf("Count(%d) admitted %d elements with %d bytes left", minElem, n, d.Remaining())
				}
				re.U32(uint32(n))
			}
			if d.Remaining() > before {
				t.Fatalf("op %d grew the input: %d -> %d bytes", op, before, d.Remaining())
			}
			if d.Err() != nil {
				break
			}
		}
		if err := d.Err(); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("failure is not ErrCorrupt: %v", err)
			}
			if d.U64() != 0 || d.Blob() != nil || d.Err() != err {
				t.Fatal("failure is not sticky")
			}
			return
		}
		consumed := data[:len(data)-d.Remaining()]
		if !bytes.Equal(re.Bytes(), consumed) {
			t.Fatalf("re-encoding differs from the bytes consumed:\nread  %x\nwrote %x", consumed, re.Bytes())
		}
		if err := d.Close(); (err == nil) != (d.Remaining() == 0) {
			t.Fatalf("Close = %v with %d bytes left", err, d.Remaining())
		}
	})
}

// TestGrowOnlySetsCapacity: a size hint, exact, short, long or made
// mid-encoding, changes no byte; an exact one needs no regrow; Reset
// empties the encoder and keeps its buffer.
func TestGrowOnlySetsCapacity(t *testing.T) {
	var plain Enc
	inSequence.enc(&plain)
	for _, hint := range []int{0, 1, plain.Len() / 2, plain.Len(), 4 * plain.Len()} {
		var e Enc
		e.Grow(hint)
		c := cap(e.Bytes())
		inSequence.enc(&e)
		if hint >= plain.Len() && cap(e.Bytes()) != c {
			t.Errorf("hint %d: the encoder regrew from %d to %d bytes", hint, c, cap(e.Bytes()))
		}
		e.Grow(hint)
		if !bytes.Equal(e.Bytes(), plain.Bytes()) {
			t.Errorf("hint %d: encoding differs from the unhinted one", hint)
		}
	}
	e := Enc{}
	inSequence.enc(&e)
	c := cap(e.Bytes())
	e.Reset()
	if e.Len() != 0 || cap(e.Bytes()) != c {
		t.Errorf("Reset left %d bytes in a buffer of %d, want 0 in %d", e.Len(), cap(e.Bytes()), c)
	}
	inSequence.enc(&e)
	if !bytes.Equal(e.Bytes(), plain.Bytes()) {
		t.Error("encoding after Reset differs")
	}
}
