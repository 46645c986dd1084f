package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/sweep"
)

// TestServedBytesAreMarshalIndent pins the one-encoding payload path to
// the two reflective marshals it replaced: the served bytes must equal
// json.MarshalIndent of the same payload plus a newline, and the digest
// must be the sha256 of json.Marshal of the payload with Digest blank.
// The grid has a failed cell whose name and error need escaping.
func TestServedBytesAreMarshalIndent(t *testing.T) {
	norm, err := diffSpec("bytes").Normalize()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := norm.Grid()
	if err != nil {
		t.Fatal(err)
	}
	cells, results, _, err := experiments.RunGrid(context.Background(), grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, sweep.Result{Name: "x<&>\"/ ", Seed: -3,
		Err: errors.New("boom: \"quoted\" <tag> & \\ \x01 \xff")})

	p, served, err := EncodeResultPayload(cells, results, sweep.Merged(results))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(served, want) {
		t.Fatalf("served bytes differ from json.MarshalIndent:\n got %s\nwant %s", served, want)
	}
	if again, err := p.Marshal(); err != nil || !bytes.Equal(again, served) {
		t.Fatalf("Marshal differs from the served bytes (err %v)", err)
	}

	blank := p
	blank.Digest = ""
	compact, err := json.Marshal(blank)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("sha256:%x", sha256.Sum256(compact)); p.Digest != want {
		t.Fatalf("digest %s, want %s", p.Digest, want)
	}
	if d, err := Digest(cells, results, sweep.Merged(results)); err != nil || d != p.Digest {
		t.Fatalf("Digest = %s (err %v), want %s", d, err, p.Digest)
	}
}

// TestPayloadRefusesWhatJSONRefuses: a NaN gauge fails the payload as
// json.Marshal fails it.
func TestPayloadRefusesWhatJSONRefuses(t *testing.T) {
	r := metrics.NewRegistry()
	r.Gauge("broken", nil).Set(math.NaN())
	results := []sweep.Result{{Name: "cell", Seed: 1, Metrics: r.Snapshot()}}
	_, _, err := EncodeResultPayload(nil, results, sweep.Merged(results))
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) {
		t.Fatalf("EncodeResultPayload error %v, want a json.UnsupportedValueError", err)
	}
	if _, err := json.Marshal(ResultPayload{Tasks: []TaskResult{{Metrics: results[0].Metrics}}}); err == nil {
		t.Fatal("json.Marshal accepted a NaN gauge")
	}
}
