package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// The appenders below write exactly the bytes encoding/json writes for a
// Snapshot — field order, omitempty, sorted label keys, HTML-escaped
// strings, ES6 float formatting — without reflecting over it. Result
// payloads are digested over these bytes, so any divergence from
// encoding/json moves a digest; FuzzSnapshotJSON pins the two together.

// AppendJSON appends the snapshot's compact JSON encoding, byte-identical
// to json.Marshal(s), to dst. Like json.Marshal it refuses a NaN or
// infinite gauge value (a *json.UnsupportedValueError).
func (s Snapshot) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"samples":`...)
	if s.Samples == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range s.Samples {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = s.Samples[i].appendJSON(dst); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}"...), nil
}

func (s *Sample) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"name":`...)
	dst = AppendJSONString(dst, s.Name)
	if len(s.Labels) > 0 {
		var buf [4]string
		dst = append(dst, `,"labels":{`...)
		for i, k := range s.Labels.appendKeys(buf[:0]) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, k)
			dst = append(dst, ':')
			dst = AppendJSONString(dst, s.Labels[k])
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `,"kind":`...)
	dst = AppendJSONString(dst, s.Kind.String())
	if s.Count != 0 {
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendUint(dst, s.Count, 10)
	}
	if s.Value != 0 {
		var err error
		dst = append(dst, `,"value":`...)
		if dst, err = appendFloat(dst, s.Value); err != nil {
			return nil, err
		}
	}
	if s.Sum != 0 {
		dst = append(dst, `,"sum":`...)
		dst = strconv.AppendUint(dst, s.Sum, 10)
	}
	dst = appendUints(dst, `,"bounds":`, s.Bounds)
	dst = appendUints(dst, `,"buckets":`, s.Buckets)
	return append(dst, '}'), nil
}

// appendUints writes field and a JSON array of vs, or nothing when vs
// is empty (omitempty).
func appendUints(dst []byte, field string, vs []uint64) []byte {
	if len(vs) == 0 {
		return dst
	}
	dst = append(dst, field...)
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, ']')
}

// appendFloat formats f as encoding/json does: shortest 'f' form, 'e'
// outside [1e-6, 1e21) with a one-digit negative exponent kept unpadded.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// jsonSafe marks the ASCII bytes a JSON string holds unescaped when
// HTML escaping is on: everything from space up but ", \\, <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// AppendJSONString appends s as encoding/json encodes a string: quoted,
// with <, > and & escaped as for HTML, control bytes as \u00XX (or their
// short escapes), invalid UTF-8 as \ufffd and U+2028/U+2029 escaped.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
