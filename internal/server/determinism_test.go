package server

import (
	"context"
	"fmt"
	"testing"

	"threadcluster/internal/experiments"
)

// diffSpec is a 4-cell grid (2 workloads x 2 policies) exercising the
// clustered policy alongside the default one.
func diffSpec(id string) JobSpec {
	return JobSpec{
		ID:            id,
		Workloads:     []string{"microbenchmark", "volano"},
		Policies:      []string{"default", "clustered"},
		Topos:         []string{"open720"},
		Seed:          42,
		WarmRounds:    2,
		EngineRounds:  30,
		MeasureRounds: 10,
	}
}

// offlineResult runs the spec's grid on the offline sweep path (the
// `tcsim sweep` code path) and returns the canonical payload.
func offlineResult(t *testing.T, spec JobSpec, workers int) ResultPayload {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	grid, err := norm.Grid()
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	cells, results, merged, err := experiments.RunGrid(context.Background(), grid, workers)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	payload, err := BuildResultPayload(cells, results, merged)
	if err != nil {
		t.Fatalf("BuildResultPayload: %v", err)
	}
	return payload
}

// offlinePayload is offlineResult's served bytes.
func offlinePayload(t *testing.T, spec JobSpec, workers int) []byte {
	t.Helper()
	data, err := offlineResult(t, spec, workers).Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return data
}

// TestServerPayloadMatchesOffline is the differential determinism test
// the package contract promises: the same spec executed (a) offline with
// one worker, (b) offline with many workers, (c) on a serial server and
// (d) concurrently on a loaded parallel server yields byte-identical
// result payloads.
func TestServerPayloadMatchesOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("differential determinism test runs full grids")
	}
	want := offlinePayload(t, diffSpec("x"), 1)
	if got := offlinePayload(t, diffSpec("x"), 4); string(got) != string(want) {
		t.Fatal("offline payload differs between 1 and 4 sweep workers")
	}

	serial := startServer(t, Options{JobWorkers: 1, TaskWorkers: 1}, nil)
	if _, err := serial.Submit(context.Background(), diffSpec("serial")); err != nil {
		t.Fatalf("Submit serial: %v", err)
	}
	if st := waitTerminal(t, serial, "serial"); st.State != StateDone {
		t.Fatalf("serial state = %s (err %q), want done", st.State, st.Error)
	}
	got, err := serial.Result("serial")
	if err != nil {
		t.Fatalf("Result serial: %v", err)
	}
	if string(got) != string(want) {
		t.Fatal("serial server payload differs from offline payload")
	}

	// A loaded concurrent server: three copies of the same grid racing
	// across three job workers, each with a parallel sweep pool.
	loaded := startServer(t, Options{JobWorkers: 3, TaskWorkers: 4}, nil)
	ids := []string{"c-0", "c-1", "c-2"}
	for _, id := range ids {
		if _, err := loaded.Submit(context.Background(), diffSpec(id)); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
	}
	for _, id := range ids {
		if st := waitTerminal(t, loaded, id); st.State != StateDone {
			t.Fatalf("%s state = %s (err %q), want done", id, st.State, st.Error)
		}
		got, err := loaded.Result(id)
		if err != nil {
			t.Fatalf("Result %s: %v", id, err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: concurrent server payload differs from offline payload", id)
		}
	}
}

// TestDigestMatchesOfflineDigest checks the digest equivalence the CI
// smoke test relies on: server-side job digest == offline Digest().
func TestDigestMatchesOfflineDigest(t *testing.T) {
	spec := smallSpec("dig")
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	grid, err := norm.Grid()
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	cells, results, merged, err := experiments.RunGrid(context.Background(), grid, 1)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	offline, err := Digest(cells, results, merged)
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}

	s := startServer(t, Options{}, nil)
	if _, err := s.Submit(context.Background(), spec); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, s, "dig")
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if st.Digest != offline {
		t.Fatalf("server digest %s != offline digest %s", st.Digest, offline)
	}
}

// TestPayloadIndependentOfSpecID pins the property that makes replicas
// interchangeable: the payload depends on the grid, not the job's name.
func TestPayloadIndependentOfSpecID(t *testing.T) {
	s := startServer(t, Options{}, nil)
	var payloads []string
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("name-%d", i)
		if _, err := s.Submit(context.Background(), smallSpec(id)); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("%s state = %s, want done", id, st.State)
		}
		data, err := s.Result(id)
		if err != nil {
			t.Fatalf("Result %s: %v", id, err)
		}
		payloads = append(payloads, string(data))
	}
	if payloads[0] != payloads[1] {
		t.Fatal("payloads differ across job names for the same grid")
	}
}
