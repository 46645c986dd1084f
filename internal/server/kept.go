package server

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
)

// A done job keeps its result as a keptPayload: the served bytes split
// into a shape, which the server interns, and the job's own values.
//
// The shape is the payload's compact encoding with every number token
// outside strings and the digest cut out. Every job of one grid shape —
// the same cells, series and present fields — has the same shape, so a
// daemon holds one copy of the metric names, labels and keys per grid
// shape rather than one per job. A shape is stored with the offsets
// where the numbers go; the values are the job's number tokens, in
// payload order. Served bytes are written by putting the values and the
// digest back into the shape.

// valueSep ends each number token in a job's values; no number token
// holds it.
const valueSep = ','

// digestTail is what follows the digest in a payload: the digest
// string's closing quote and the end of the payload object.
const digestTail = "\"}"

// payloadShape is an interned shape: its text, and the offsets in it
// where the number tokens go, ascending. The digest goes at
// len(text)-len(digestTail), after every number. Immutable once interned.
type payloadShape struct {
	text  string
	slots []int
}

// keptPayload is what a done job retains of its result payload.
type keptPayload struct {
	shape *payloadShape
	vals  string // the job's number tokens in payload order, each followed by valueSep
}

// size returns the length of the served bytes.
func (k keptPayload) size(digest string) int {
	return len(k.shape.text) + len(k.vals) - len(k.shape.slots) + len(digest)
}

// writeTo writes the served bytes to w: the shape's text with the values
// and the digest put back. It allocates nothing when w is an
// io.StringWriter.
func (k keptPayload) writeTo(w io.Writer, digest string) error {
	text, vals, at := k.shape.text, k.vals, 0
	for _, off := range k.shape.slots {
		n := strings.IndexByte(vals, valueSep)
		if _, err := io.WriteString(w, text[at:off]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, vals[:n]); err != nil {
			return err
		}
		at, vals = off, vals[n+1:]
	}
	digestAt := len(text) - len(digestTail)
	for _, s := range []string{text[at:digestAt], digest, text[digestAt:]} {
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	return nil
}

// payloadScratch holds a job worker's buffers for encoding and cutting
// a payload. They are reused from job to job; nothing a job keeps points
// into them.
type payloadScratch struct {
	compact, text, vals []byte // the payload, its shape's text and its values
	slots               []int  // the shape's number offsets
}

// cut splits compact, a payload's compact encoding carrying digest, into
// its shape's text and slots and its values.
func (sc *payloadScratch) cut(compact []byte, digest string) error {
	sc.text, sc.slots, sc.vals = cutNumbers(compact, sc.text[:0], sc.slots[:0], sc.vals[:0])
	at := len(sc.text) - len(digestTail) - len(digest)
	if at < 0 || string(sc.text[at:at+len(digest)]) != digest || string(sc.text[at+len(digest):]) != digestTail {
		return fmt.Errorf("server: payload does not end with its digest %q", digest)
	}
	sc.text = append(sc.text[:at], digestTail...)
	return nil
}

// shapeTable interns payload shapes by their text. The zero value is an
// empty table; it is safe for concurrent use.
type shapeTable struct {
	mu sync.Mutex
	m  map[string]*payloadShape
}

// intern cuts compact, a payload's compact encoding carrying digest, into
// sc and returns its shape, adding the shape to the table when the table
// has none (added).
func (t *shapeTable) intern(sc *payloadScratch, compact []byte, digest string) (sh *payloadShape, added bool, err error) {
	if err := sc.cut(compact, digest); err != nil {
		return nil, false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sh := t.m[string(sc.text)]; sh != nil {
		return sh, false, nil
	}
	if t.m == nil {
		t.m = make(map[string]*payloadShape)
	}
	sh = &payloadShape{text: string(sc.text), slots: slices.Clone(sc.slots)}
	t.m[sh.text] = sh
	return sh, true, nil
}

// cutNumbers appends src, valid compact JSON, to text with every number
// token outside strings cut out, the offset in text where each token
// was to slots, and each token followed by valueSep to vals.
func cutNumbers(src, text []byte, slots []int, vals []byte) ([]byte, []int, []byte) {
	start := 0
	for i := 0; i < len(src); {
		switch c := src[i]; {
		case c == '"': // skip the string
			for i++; src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
			i++
		case c == '-' || '0' <= c && c <= '9':
			text = append(text, src[start:i]...)
			slots = append(slots, len(text))
			j := i + 1
			for j < len(src) && numberByte[src[j]] {
				j++
			}
			vals = append(append(vals, src[i:j]...), valueSep)
			i, start = j, j
		default:
			i++
		}
	}
	return append(text, src[start:]...), slots, vals
}

// numberByte marks the bytes that continue a JSON number token.
var numberByte = [256]bool{
	'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true, '7': true, '8': true, '9': true,
	'.': true, 'e': true, 'E': true, '+': true, '-': true,
}
