package server

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"sync"

	"threadcluster/internal/metrics"
)

// A done job keeps its result as a keptPayload: the served bytes split
// into a shape, which the server interns, and the job's own values.
//
// The shape is the payload with every number token outside strings and
// the digest cut out. Every job of one grid shape — the same cells,
// series and present fields — has the same shape, so a daemon holds one
// copy of the metric names, labels and keys per grid shape rather than
// one per job. A shape is named by the sha256 of its compact form (the
// hash a payload digest already stakes identity on) and stored served
// (indented), with the offsets where the numbers go. The values are the
// job's number tokens, in payload order. Served bytes are written by
// putting the values and the digest back into the shape.

// valueSep ends each number token in a job's values; no number token
// holds it.
const valueSep = ','

// compactTail and servedTail are what follow the digest in a payload's
// compact and served forms: the digest string's closing quote and the
// end of the payload object.
const (
	compactTail = "\"}"
	servedTail  = "\"\n}\n"
)

// payloadShape is an interned shape: its served form, and the offsets in
// it where the number tokens go, ascending. The digest goes at
// len(text)-len(servedTail), after every number. Immutable once interned.
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
	digestAt := len(text) - len(servedTail)
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
	compact, key, vals []byte // the payload, its shape's compact form and its values
	id                 [sha256.Size]byte
}

// cut splits compact, a payload's compact encoding carrying digest, into
// the compact form of its shape, named by id, and its values.
func (sc *payloadScratch) cut(compact []byte, digest string) error {
	var err error
	sc.key, sc.vals = cutNumbers(compact, sc.key[:0], sc.vals[:0])
	if sc.key, err = cutDigest(sc.key, digest, compactTail); err != nil {
		return err
	}
	sc.id = sha256.Sum256(sc.key)
	return nil
}

// shapeTable interns payload shapes by the sha256 of their compact form.
// The zero value is an empty table; it is safe for concurrent use.
type shapeTable struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]*payloadShape
}

// intern cuts compact, a payload's compact encoding carrying digest, into
// sc and returns its shape, adding the shape to the table when the table
// has none (added). A new shape is rendered outside the table's lock.
func (t *shapeTable) intern(sc *payloadScratch, compact []byte, digest string) (sh *payloadShape, added bool, err error) {
	if err := sc.cut(compact, digest); err != nil {
		return nil, false, err
	}
	t.mu.Lock()
	sh = t.m[sc.id]
	t.mu.Unlock()
	if sh != nil {
		return sh, false, nil
	}
	if sh, err = sc.shape(compact, digest); err != nil {
		return nil, false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if had := t.m[sc.id]; had != nil { // another worker interned it meanwhile
		return had, false, nil
	}
	if t.m == nil {
		t.m = make(map[[sha256.Size]byte]*payloadShape)
	}
	t.m[sc.id] = sh
	return sh, true, nil
}

// shape builds the shape of compact, the payload sc last cut: its served
// form, as RenderResultPayload renders it, without the numbers, which
// must be as many as the compact form gave.
func (sc *payloadScratch) shape(compact []byte, digest string) (*payloadShape, error) {
	n := bytes.Count(sc.vals, []byte{valueSep})
	text, slots := metrics.AppendIndentedShape(nil, compact, make([]int, 0, n))
	text, err := cutDigest(text, digest, servedTail)
	if err != nil {
		return nil, err
	}
	if len(slots) != n {
		return nil, fmt.Errorf("server: served payload has %d numbers, its compact form %d", len(slots), n)
	}
	return &payloadShape{text: string(text), slots: slots}, nil
}

// cutNumbers appends src, valid compact JSON, to text with every number
// token outside strings cut out, and each token followed by valueSep to
// vals.
func cutNumbers(src, text, vals []byte) ([]byte, []byte) {
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
	return append(text, src[start:]...), vals
}

// cutDigest cuts digest out of text, where it is followed only by tail.
func cutDigest(text []byte, digest, tail string) ([]byte, error) {
	at := len(text) - len(tail) - len(digest)
	if at < 0 || string(text[at:at+len(digest)]) != digest || string(text[at+len(digest):]) != tail {
		return nil, fmt.Errorf("server: payload does not end with its digest %q", digest)
	}
	return append(text[:at], tail...), nil
}

// numberByte marks the bytes that continue a JSON number token.
var numberByte = [256]bool{
	'0': true, '1': true, '2': true, '3': true, '4': true, '5': true, '6': true, '7': true, '8': true, '9': true,
	'.': true, 'e': true, 'E': true, '+': true, '-': true,
}
