package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threadcluster/internal/errs"
)

// writeSpoolFile drops raw bytes into a spool directory under name.
func writeSpoolFile(t *testing.T, dir, name string, data string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestSpoolQuarantine: corrupt spool and checkpoint files must be
// renamed aside with a structured ErrSpoolCorrupt warning while valid
// neighbors re-admit — a damaged file costs one job, never the daemon.
// Temp files a crash left mid-write are deleted without a warning.
func TestSpoolQuarantine(t *testing.T) {
	spool := t.TempDir()
	valid, err := json.Marshal(smallSpec("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	writeSpoolFile(t, spool, "crashed.ckpt.4242.7.tmp", `{"spec": {`)
	writeSpoolFile(t, spool, "00000000-old.json.tmp", `{"id": "old"`)
	writeSpoolFile(t, spool, "00000000-truncated.json", `{"id": "trunc", "workloads": ["micro`)
	writeSpoolFile(t, spool, "00000001-survivor.json", string(valid))
	writeSpoolFile(t, spool, "00000002-badspec.json", `{"id": "nogrid", "workloads": [], "policies": [], "topos": []}`)
	writeSpoolFile(t, spool, "garbage.ckpt", "not json at all")
	// Structurally valid checkpoint whose cell disagrees with its grid.
	ckpt, err := json.Marshal(Checkpoint{
		Spec:  mustNormalize(t, smallSpec("liar")),
		Cells: []CheckpointCell{{Index: 0, Name: "wrong/cell/name", Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	writeSpoolFile(t, spool, "liar.ckpt", string(ckpt))

	s := startServer(t, Options{SpoolDir: spool}, nil)

	if st := waitTerminal(t, s, "survivor"); st.State != StateDone {
		t.Fatalf("survivor state = %s (err %q), want done", st.State, st.Error)
	}
	warnings := s.SpoolWarnings()
	if len(warnings) != 4 {
		t.Fatalf("SpoolWarnings() = %d warnings %v, want 4", len(warnings), warnings)
	}
	for _, w := range warnings {
		if !errors.Is(w, errs.ErrSpoolCorrupt) {
			t.Errorf("warning %v does not wrap ErrSpoolCorrupt", w)
		}
	}
	entries, err := listSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	var quarantined []string
	for _, name := range entries {
		if strings.HasSuffix(name, QuarantineSuffix) {
			quarantined = append(quarantined, name)
		} else {
			t.Errorf("unexpected non-quarantined spool entry %q", name)
		}
	}
	if len(quarantined) != 4 {
		t.Fatalf("quarantined files = %v, want 4", quarantined)
	}
	if got := s.reg.Counter("server_spool_quarantined_total", nil).Value(); got != 4 {
		t.Fatalf("server_spool_quarantined_total = %d, want 4", got)
	}
}

func mustNormalize(t *testing.T, spec JobSpec) JobSpec {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

// TestCheckpointResumeDigest is the kill-mid-run regression pin: a job
// cut down by a drain after completing exactly one grid cell leaves a
// checkpoint, and a restarted server — driven over HTTP like a real
// client — resumes it to the byte-identical payload the offline sweep
// (and hence an uninterrupted server run) produces.
func TestCheckpointResumeDigest(t *testing.T) {
	spool := t.TempDir()
	spec := diffSpec("resume-me")
	spec.Workers = 1 // cells run serially: the cut point is exact

	firstCell := make(chan struct{}, 1)
	release := make(chan struct{})
	s1 := startServer(t, Options{JobWorkers: 1, SpoolDir: spool, CheckpointEvery: 1}, func(s *Server) {
		s.afterTask = func(*job, int) {
			select {
			case firstCell <- struct{}{}:
				<-release // hold the worker until the drain deadline cuts the job
			default:
			}
		}
	})
	if _, err := s1.Submit(context.Background(), spec); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-firstCell

	cut, cancel := context.WithCancel(context.Background())
	cancel() // deadline already struck: the drain cuts immediately
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s1.Shutdown(cut) }()
	// Shutdown cancels the running job's context, then the held worker
	// resumes, fails the remaining cells and settles the job as cut.
	close(release)
	if err := <-shutdownDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown err = %v, want context.Canceled (cut drain)", err)
	}
	if st, _ := s1.Status("resume-me"); st.State != StateCanceled {
		t.Fatalf("state after cut = %s, want canceled", st.State)
	}

	// The checkpoint on disk records exactly the one completed cell.
	data, err := os.ReadFile(filepath.Join(spool, "resume-me"+checkpointSuffix))
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}
	var cf Checkpoint
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatalf("parsing checkpoint: %v", err)
	}
	if len(cf.Cells) != 1 {
		t.Fatalf("checkpoint holds %d cells, want 1 (cut after the first)", len(cf.Cells))
	}

	// Restart onto the same spool and drive the resumed job over HTTP.
	s2 := startServer(t, Options{SpoolDir: spool}, nil)
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()

	if st := waitTerminal(t, s2, "resume-me"); st.State != StateDone {
		t.Fatalf("resumed state = %s (err %q), want done", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/resume-me/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading result body: %v", err)
	}
	want := offlinePayload(t, spec, 1)
	if string(got) != string(want) {
		t.Fatalf("resumed payload differs from offline payload:\nresumed %d bytes\noffline %d bytes", len(got), len(want))
	}

	// The resumed job settled cleanly: its checkpoint is retired.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(spool, "resume-me"+checkpointSuffix)); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint file still present after the resumed job settled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCheckpointPeriodicFlush: with CheckpointEvery=1 every completed
// cell lands on disk, so even a kill with no drain (simulated by
// reading the file mid-run) resumes from the last flush.
func TestCheckpointPeriodicFlush(t *testing.T) {
	spool := t.TempDir()
	spec := diffSpec("flush-watch")
	spec.Workers = 1

	type flushState struct {
		cells int
		err   error
	}
	observed := make(chan flushState, 16)
	s := startServer(t, Options{JobWorkers: 1, SpoolDir: spool, CheckpointEvery: 1}, func(s *Server) {
		s.afterTask = func(j *job, _ int) {
			data, err := os.ReadFile(filepath.Join(spool, j.spec.ID+checkpointSuffix))
			if err != nil {
				observed <- flushState{err: err}
				return
			}
			var cf Checkpoint
			if err := json.Unmarshal(data, &cf); err != nil {
				observed <- flushState{err: err}
				return
			}
			observed <- flushState{cells: len(cf.Cells)}
		}
	})
	if _, err := s.Submit(context.Background(), spec); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitTerminal(t, s, "flush-watch"); st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	for i := 1; i <= 4; i++ {
		fs := <-observed
		if fs.err != nil {
			t.Fatalf("after cell %d: reading checkpoint: %v", i, fs.err)
		}
		if fs.cells != i {
			t.Fatalf("after cell %d the checkpoint holds %d cells, want %d", i, fs.cells, i)
		}
	}
}

// TestWriteFileAtomicConcurrent: concurrent writers of one path each
// get their own temp file, so every install succeeds and the file ends
// holding exactly one writer's whole payload.
func TestWriteFileAtomicConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	const writers, calls = 8, 200
	payloads := make([][]byte, writers)
	for w := range payloads {
		payloads[w] = bytes.Repeat([]byte{byte('a' + w)}, 4096+w)
	}
	var wg sync.WaitGroup
	var failed atomic.Int64
	for _, data := range payloads {
		wg.Add(1)
		go func(data []byte) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if WriteFileAtomic(path, data) != nil {
					failed.Add(1)
				}
			}
		}(data)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d concurrent writes failed", n, writers*calls)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || int(got[0]-'a') >= writers || !bytes.Equal(got, payloads[got[0]-'a']) {
		t.Fatalf("final file (%d bytes) is no single writer's payload", len(got))
	}
	if entries, _ := listSpool(dir); len(entries) != 1 {
		t.Fatalf("directory holds %v, want only the installed file", entries)
	}
}

// TestWriteFileAtomicMode: the installed file gets the mode os.WriteFile
// would give it (0666 less the umask).
func TestWriteFileAtomicMode(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref")
	if err := os.WriteFile(ref, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "atomic")
	if err := WriteFileAtomic(path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode().Perm() != want.Mode().Perm() {
		t.Fatalf("mode = %v, want %v (os.WriteFile's)", got.Mode().Perm(), want.Mode().Perm())
	}
}

// TestCheckpointConcurrentFlush: with eight sweep workers per job and a
// flush after every cell, a job's checkpoint installs overlap; none may
// fail, and the file on disk never loses cells it already held.
func TestCheckpointConcurrentFlush(t *testing.T) {
	spool := t.TempDir()
	var (
		mu        sync.Mutex
		lastCells = map[string]int{}
	)
	s := startServer(t, Options{JobWorkers: 1, SpoolDir: spool, CheckpointEvery: 1}, func(s *Server) {
		s.afterTask = func(j *job, _ int) {
			mu.Lock() // serialized reads: monotone installs read as monotone
			defer mu.Unlock()
			data, err := os.ReadFile(filepath.Join(spool, j.spec.ID+checkpointSuffix))
			if err != nil {
				return // the failed install is reported through SpoolWarnings
			}
			var cf Checkpoint
			if err := json.Unmarshal(data, &cf); err != nil {
				t.Errorf("%s: parsing checkpoint: %v", j.spec.ID, err)
				return
			}
			if len(cf.Cells) < lastCells[j.spec.ID] {
				t.Errorf("%s: checkpoint went from %d cells to %d", j.spec.ID, lastCells[j.spec.ID], len(cf.Cells))
			}
			lastCells[j.spec.ID] = len(cf.Cells)
		}
	})
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("flush-%d", i)
		spec := JobSpec{
			ID:            id,
			Workloads:     []string{"microbenchmark", "volano", "microbenchmark", "volano"},
			Policies:      []string{"default", "round-robin"},
			Topos:         []string{"open720", "power5-32"},
			Seed:          int64(i + 1),
			WarmRounds:    1,
			EngineRounds:  1,
			MeasureRounds: 1,
			Workers:       8,
		}
		if _, err := s.Submit(context.Background(), spec); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("%s state = %s (err %q), want done", id, st.State, st.Error)
		}
		if w := s.SpoolWarnings(); len(w) != 0 {
			t.Fatalf("%s: SpoolWarnings() = %v, want none", id, w)
		}
	}
}
