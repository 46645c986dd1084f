package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"threadcluster/internal/errs"
)

// shardSpec is a 4-cell grid (2 workloads x 2 policies) light enough
// to run several times per test.
func shardSpec(id string) JobSpec {
	return JobSpec{
		ID:            id,
		Workloads:     []string{"microbenchmark", "volano"},
		Policies:      []string{"default", "clustered"},
		Topos:         []string{"open720"},
		Seed:          11,
		WarmRounds:    2,
		EngineRounds:  6,
		MeasureRounds: 4,
	}
}

// TestSubsetCellsValidation: Cells must be strictly increasing and in
// range, and a shard's cost is denominated in selected cells only.
func TestSubsetCellsValidation(t *testing.T) {
	base := shardSpec("subset")
	for _, tc := range []struct {
		name  string
		cells []int
	}{
		{"out of range", []int{0, 4}},
		{"negative", []int{-1}},
		{"duplicate", []int{1, 1}},
		{"unsorted", []int{2, 1}},
	} {
		spec := base
		spec.Cells = tc.cells
		if _, err := spec.Normalize(); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s: Normalize = %v, want ErrBadConfig", tc.name, err)
		}
	}

	spec := base
	spec.Cells = []int{0, 2}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatalf("valid subset rejected: %v", err)
	}
	full := base
	fullNorm, err := full.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Cost()*2 != fullNorm.Cost() {
		t.Errorf("2-of-4-cell shard cost = %d, full grid = %d; want half", norm.Cost(), fullNorm.Cost())
	}
}

// TestShardedCellsMatchFullGrid: two shard-scoped jobs covering the
// grid produce, cell for cell, the identical task results a full-grid
// job produces at those positions — names, seeds and metrics bytes.
// This is the server-side half of the fleet digest argument: shards
// preserve full-grid identities, so reassembly is pure bookkeeping.
func TestShardedCellsMatchFullGrid(t *testing.T) {
	want := decodePayload(t, offlinePayload(t, shardSpec("full"), 2))

	s := startServer(t, Options{JobWorkers: 2}, nil)
	for _, shard := range []struct {
		id    string
		cells []int
	}{
		{"shard-a", []int{0, 3}},
		{"shard-b", []int{1, 2}},
	} {
		spec := shardSpec(shard.id)
		spec.Cells = shard.cells
		if _, err := s.Submit(context.Background(), spec); err != nil {
			t.Fatalf("Submit(%s): %v", shard.id, err)
		}
		if st := waitTerminal(t, s, shard.id); st.State != StateDone {
			t.Fatalf("%s state = %s (err %q)", shard.id, st.State, st.Error)
		}
		data, err := s.Result(shard.id)
		if err != nil {
			t.Fatalf("Result(%s): %v", shard.id, err)
		}
		got := decodePayload(t, data)
		if len(got.Tasks) != len(shard.cells) {
			t.Fatalf("%s returned %d tasks, want %d", shard.id, len(got.Tasks), len(shard.cells))
		}
		for i, idx := range shard.cells {
			if !sameTask(t, got.Tasks[i], want.Tasks[idx]) {
				t.Errorf("%s cell %d differs from full-grid position %d", shard.id, i, idx)
			}
		}
	}
}

func decodePayload(t *testing.T, data []byte) ResultPayload {
	t.Helper()
	var p ResultPayload
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("decoding payload: %v", err)
	}
	return p
}

// sameTask compares two task results by their canonical JSON bytes
// (snapshot maps marshal with sorted keys, so this is byte-stable).
func sameTask(t *testing.T, a, b TaskResult) bool {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(aj) == string(bj)
}

// TestSpoolDuplicateIDRejected: a spool carrying the same job ID twice
// admits the first file and quarantines the second as a bad config —
// never double-queues. Guards the restart path, where a job's spool file
// and a stale operator-copied spec can coexist.
func TestSpoolDuplicateIDRejected(t *testing.T) {
	spool := t.TempDir()
	valid, err := json.Marshal(smallSpec("twin"))
	if err != nil {
		t.Fatal(err)
	}
	writeSpoolFile(t, spool, "00000000-twin.json", string(valid))
	writeSpoolFile(t, spool, "00000001-twin.json", string(valid))

	s := startServer(t, Options{SpoolDir: spool}, nil)

	if st := waitTerminal(t, s, "twin"); st.State != StateDone {
		t.Fatalf("twin state = %s (err %q), want done", st.State, st.Error)
	}
	var withID int
	for _, st := range s.Jobs() {
		if st.ID == "twin" {
			withID++
		}
	}
	if withID != 1 {
		t.Fatalf("job twin admitted %d times, want once", withID)
	}
	warnings := s.SpoolWarnings()
	if len(warnings) != 1 || !errors.Is(warnings[0], errs.ErrSpoolCorrupt) {
		t.Fatalf("SpoolWarnings() = %v, want one ErrSpoolCorrupt", warnings)
	}
	if !strings.Contains(warnings[0].Error(), "duplicate job ID") {
		t.Fatalf("warning %v does not name the duplicate ID", warnings[0])
	}
	// The classification itself: a duplicate re-admission is a bad
	// config, not a transient condition.
	writeSpoolFile(t, spool, "00000002-twin.json", string(valid))
	if _, err := s.readmit(spoolFile{seq: 2, id: "twin"}); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("readmit duplicate = %v, want ErrBadConfig", err)
	}
}

// TestWorkerHealthReport: the /v1/worker probe reports capacity and
// draining state, always with a 200 (the fleet coordinator needs to
// tell "dying" from "dead").
func TestWorkerHealthReport(t *testing.T) {
	s := startServer(t, Options{JobWorkers: 3}, nil)

	h := s.WorkerHealth()
	if h.JobWorkers != 3 || h.Draining || h.Running != 0 || h.Queued != 0 || h.OutstandingCost != 0 {
		t.Fatalf("idle WorkerHealth = %+v", h)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/worker")
	if err != nil {
		t.Fatalf("GET /v1/worker: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/worker = %d, want 200", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var wire WorkerHealth
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatalf("decoding worker health %q: %v", data, err)
	}
	if wire != h {
		t.Fatalf("wire health %+v != direct %+v", wire, h)
	}
}
