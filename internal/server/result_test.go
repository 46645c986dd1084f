package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"threadcluster/internal/metrics"
	"threadcluster/internal/sweep"
)

// TestPayloadRefusesWhatJSONRefuses: a NaN gauge fails the payload as
// json.Marshal fails it.
func TestPayloadRefusesWhatJSONRefuses(t *testing.T) {
	r := metrics.NewRegistry()
	r.Gauge("broken", nil).Set(math.NaN())
	results := []sweep.Result{{Name: "cell", Seed: 1, Metrics: r.Snapshot()}}
	_, _, err := EncodeResultPayload(nil, nil, results, sweep.Merged(results))
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) {
		t.Fatalf("EncodeResultPayload error %v, want a json.UnsupportedValueError", err)
	}
	if _, err := json.Marshal(ResultPayload{Tasks: []TaskResult{{Metrics: results[0].Metrics}}}); err == nil {
		t.Fatal("json.Marshal accepted a NaN gauge")
	}
}

// TestRetainedPayloadIsCompact: a settled job retains its payload as
// the server's interned shape plus its own number tokens — no copy of
// its own. The values are the payload's number tokens in order, as an
// independent JSON decoder reads them, each followed by the separator;
// the shape is the served body, json.Marshal of the offline payload,
// less those tokens and the digest; and the context the job ran under
// is dropped at settle.
func TestRetainedPayloadIsCompact(t *testing.T) {
	s := startServer(t, Options{}, nil)
	if _, err := s.Submit(context.Background(), smallSpec("kept")); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, "kept"); st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	s.mu.Lock()
	j := s.jobs["kept"]
	k, digest, cancel := j.kept, j.digest, j.cancel
	keptBytes := s.keptBytes
	s.mu.Unlock()
	s.shapes.mu.Lock()
	shapes := len(s.shapes.m)
	s.shapes.mu.Unlock()
	if cancel != nil {
		t.Fatal("a settled job still holds its cancel func (and its context)")
	}
	served, err := s.Result("kept")
	if err != nil {
		t.Fatal(err)
	}
	if want, err := json.Marshal(offlineResult(t, smallSpec("kept"), 1)); err != nil || !bytes.Equal(served, want) {
		t.Fatalf("served body is not json.Marshal of the offline payload (err %v)", err)
	}

	tokens := numberTokens(t, served)
	if want := strings.Join(tokens, ",") + ","; k.vals != want {
		t.Fatalf("kept values\n %s\nwant the payload's number tokens\n %s", k.vals, want)
	}
	if len(k.shape.slots) != len(tokens) {
		t.Fatalf("shape has %d slots for %d number tokens", len(k.shape.slots), len(tokens))
	}
	numBytes := len(k.vals) - len(tokens)
	if want := len(served) - len(digest) - numBytes; len(k.shape.text) != want {
		t.Fatalf("shape text is %d bytes, want the served %d less %d of digest and %d of numbers",
			len(k.shape.text), len(served), len(digest), numBytes)
	}
	if strings.Contains(k.shape.text, digest) {
		t.Fatal("the shape holds the digest")
	}
	if want := len(k.shape.text) + len(k.vals); shapes != 1 || keptBytes != want {
		t.Fatalf("%d shapes, %d kept bytes; want 1 shape, and its text plus the values (%d)",
			shapes, keptBytes, want)
	}
}

// numberTokens returns the number tokens of a JSON document in order,
// as encoding/json reads them.
func numberTokens(t *testing.T, doc []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var out []string
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := tok.(json.Number); ok {
			out = append(out, string(n))
		}
	}
}

// TestResultFetchesAgree: every fetch of a settled job writes the same
// bytes, json.Marshal of the offline payload — fetched in sequence and
// from concurrent goroutines (run it under -race: the write reads the
// retained shape and values outside the server lock).
func TestResultFetchesAgree(t *testing.T) {
	want, err := json.Marshal(offlineResult(t, smallSpec("fetch"), 1))
	if err != nil {
		t.Fatal(err)
	}

	s := startServer(t, Options{}, nil)
	if _, err := s.Submit(context.Background(), smallSpec("fetch")); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, "fetch"); st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	for i := 0; i < 2; i++ {
		got, err := s.Result("fetch")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("sequential fetch %d differs from json.Marshal (err %v)", i, err)
		}
	}
	const fetchers = 8
	var wg sync.WaitGroup
	errc := make(chan error, fetchers)
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.Result("fetch")
			if err == nil && !bytes.Equal(got, want) {
				err = errors.New("concurrent fetch differs from json.Marshal")
			}
			errc <- err
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}
