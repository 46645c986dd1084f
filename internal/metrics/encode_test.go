package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// fuzzSnapshot builds a snapshot from fuzz inputs. text is split on '|'
// into the strings sample names, label names and label values are drawn
// from; each byte of shape after the first shapes one sample (labels,
// kind, histogram length), and the first chooses nil or empty samples
// when there are none. Gauges take value and its neighbours, counts take
// count and its complements, so the seeds' edge values reach every field.
func fuzzSnapshot(text string, value float64, count uint64, shape []byte) Snapshot {
	words := strings.Split(text, "|")
	w := 0
	word := func() string {
		s := words[w%len(words)]
		w++
		return s
	}
	var s Snapshot
	if len(shape) > 0 && shape[0]&1 == 1 {
		s.Samples = []Sample{}
	}
	for i, b := range shape[min(1, len(shape)):min(len(shape), 9)] {
		smp := Sample{Name: word(), Kind: Kind(b >> 2 % 3)}
		if n := int(b % 4); n > 0 {
			smp.Labels = Labels{}
			for range n {
				smp.Labels[word()] = word()
			}
		}
		switch smp.Kind {
		case KindCounter:
			smp.Count = []uint64{count, count >> 1, math.MaxUint64 - count, 0}[i%4]
		case KindGauge:
			smp.Value = []float64{value, -value, math.Nextafter(value, math.Inf(1)), math.Nextafter(value, 0)}[i%4]
		case KindHistogram:
			smp.Count, smp.Sum = count, math.MaxUint64-count
			for j := range int(b>>4) % 4 {
				smp.Bounds = append(smp.Bounds, uint64(j)<<(b%64))
				smp.Buckets = append(smp.Buckets, count>>j)
			}
			if len(smp.Bounds) > 0 {
				smp.Buckets = append(smp.Buckets, count)
			}
		}
		s.Samples = append(s.Samples, smp)
	}
	return s
}

// FuzzSnapshotJSON pins the appender to encoding/json: the compact
// encoding must equal json.Marshal, WriteJSON must equal an indenting
// json.Encoder, a value encoding/json refuses (NaN, ±Inf) must be
// refused, and decoding the encoding must give back a snapshot that
// encodes the same.
func FuzzSnapshotJSON(f *testing.F) {
	f.Add("ops", 0.0, uint64(0), []byte{0})
	f.Add("ops", 0.0, uint64(0), []byte{1})
	f.Add("cache_access_total|source|remote-L2", 1e-6, uint64(math.MaxUint64), []byte{0, 0x01, 0x05, 0x09})
	f.Add("q\"uo\\te|<k>|&v\x01\x1f\x7f|caf\u00e9|\u2028\u2029|\xff\xfe|k\tb|v\n", 1e21, uint64(42), []byte{1, 0x07, 0x06, 0x0b, 0x03})
	f.Add("g", 9.999999999999999e-7, uint64(1), []byte{0, 0x04, 0x04, 0x04, 0x04})
	f.Add("g", 9.999999999999999e20, uint64(1), []byte{0, 0x04, 0x04, 0x04, 0x04})
	f.Add("g", 1e-7, uint64(1), []byte{0, 0x04, 0x04})
	f.Add("g", math.Copysign(0, -1), uint64(1), []byte{0, 0x04})
	f.Add("g", 5e-324, uint64(1), []byte{0, 0x04, 0x04})
	f.Add("g", math.MaxFloat64, uint64(1), []byte{0, 0x04, 0x04, 0x04})
	f.Add("g", 0.1, uint64(1), []byte{0, 0x04, 0x05})
	f.Add("g|h", math.NaN(), uint64(1), []byte{0, 0x00, 0x04})
	f.Add("g", math.Inf(1), uint64(1), []byte{0, 0x04})
	f.Add("g", math.Inf(-1), uint64(1), []byte{0, 0x04})
	f.Add("depth|cpu|3", 2.5, uint64(7), []byte{0, 0x38, 0x29, 0x1a, 0x0b})
	f.Fuzz(func(t *testing.T, text string, value float64, count uint64, shape []byte) {
		s := fuzzSnapshot(text, value, count, shape)
		got, err := s.AppendJSON(nil)
		want, wantErr := json.Marshal(s)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("AppendJSON error %q, json.Marshal error %q", err, wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("compact encoding differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
		var indented, wantIndented bytes.Buffer
		if err := s.WriteJSON(&indented); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&wantIndented)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(indented.Bytes(), wantIndented.Bytes()) {
			t.Fatalf("indented encoding differs from json.MarshalIndent:\n got %s\nwant %s", indented.Bytes(), wantIndented.Bytes())
		}

		var back Snapshot
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("decoding the encoding: %v\n%s", err, got)
		}
		// Invalid UTF-8 encodes as \ufffd, which decodes to U+FFFD and
		// not to the original bytes; everything else must come back.
		again, err := back.AppendJSON(nil)
		if err != nil || (utf8.ValidString(text) && !bytes.Equal(again, got)) {
			t.Fatalf("round trip changed the encoding (err %v):\n got %s\nwant %s", err, again, got)
		}
	})
}
