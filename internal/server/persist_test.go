package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"threadcluster/internal/experiments"
)

// writeSpoolFile drops raw bytes into a spool directory under name.
func writeSpoolFile(t *testing.T, dir, name string, data string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o666); err != nil {
		t.Fatal(err)
	}
}

// records lists the cell records in a spool, quarantined ones aside.
func records(t *testing.T, spool string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(spool, cellsDir, "*"+spoolSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// specGrid is the grid of a normalized spec.
func specGrid(t *testing.T, norm JobSpec) experiments.GridSpec {
	t.Helper()
	grid, err := norm.Grid()
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// gridCells lists the full grid of a normalized spec.
func gridCells(t *testing.T, norm JobSpec) []experiments.GridCell {
	t.Helper()
	return specGrid(t, norm).Cells()
}

// TestSpoolQuarantine: corrupt or misnamed spool files and corrupt cell
// records must be renamed aside with a structured ErrSpoolCorrupt
// warning while valid neighbors re-admit — a damaged file costs one job
// (or one cell's recomputation), never the daemon. Temp files a crash
// left mid-write, beside the specs or among the records, are deleted
// without a warning.
func TestSpoolQuarantine(t *testing.T) {
	spool := t.TempDir()
	survivor := mustNormalize(t, smallSpec("survivor"))
	valid, err := json.Marshal(survivor)
	if err != nil {
		t.Fatal(err)
	}
	grid := specGrid(t, survivor)
	torn := cellPath(spool, grid.CellKey(grid.Cells()[0]).Hash())
	if err := os.MkdirAll(filepath.Dir(torn), 0o777); err != nil {
		t.Fatal(err)
	}
	impostor, err := json.Marshal(mustNormalize(t, smallSpec("someone-else")))
	if err != nil {
		t.Fatal(err)
	}
	writeSpoolFile(t, spool, "00000005-crashed.json.4242.7.tmp", `{"id": "crashed"`)
	writeSpoolFile(t, spool, "00000000-old.json.tmp", `{"id": "old"`)
	writeSpoolFile(t, spool, filepath.Join(cellsDir, "0123.json.4242.8.tmp"), `{"epoch": 1`)
	writeSpoolFile(t, spool, "00000000-truncated.json", `{"id": "trunc", "workloads": ["micro`)
	writeSpoolFile(t, spool, "00000001-survivor.json", string(valid))
	writeSpoolFile(t, spool, "00000002-nogrid.json", `{"id": "nogrid", "workloads": [], "policies": [], "topos": []}`)
	writeSpoolFile(t, spool, "00000003-garbage.json", "not json at all")
	writeSpoolFile(t, spool, "00000004-impostor.json", string(impostor))
	writeSpoolFile(t, spool, "noseq.json", string(valid))
	writeSpoolFile(t, spool, filepath.Join(cellsDir, filepath.Base(torn)), `{"epoch": 1, "spec": {"workl`)

	s := startServer(t, Options{SpoolDir: spool}, nil)

	if st := waitTerminal(t, s, "survivor"); st.State != StateDone {
		t.Fatalf("survivor state = %s (err %q), want done", st.State, st.Error)
	}
	if got, want := mustResult(t, s, "survivor"), offlinePayload(t, survivor, 1); !bytes.Equal(got, want) {
		t.Fatal("survivor payload differs from offline after its torn record was quarantined")
	}
	warnings := s.SpoolWarnings()
	if len(warnings) != 6 {
		t.Fatalf("SpoolWarnings() = %d warnings %v, want 6", len(warnings), warnings)
	}
	for _, w := range warnings {
		if !errors.Is(w, errs.ErrSpoolCorrupt) {
			t.Errorf("warning %v does not wrap ErrSpoolCorrupt", w)
		}
	}
	var quarantined []string
	for _, dir := range []string{spool, filepath.Join(spool, cellsDir)} {
		entries, err := listSpool(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range entries {
			switch {
			case strings.HasSuffix(name, QuarantineSuffix):
				quarantined = append(quarantined, name)
			case dir == spool || strings.HasSuffix(name, tmpSuffix):
				t.Errorf("unexpected spool entry %q", name)
			}
		}
	}
	if len(quarantined) != 6 {
		t.Fatalf("quarantined files = %v, want 6", quarantined)
	}
	if _, err := os.Stat(torn); err != nil {
		t.Fatalf("the recomputed cell was not recorded again: %v", err)
	}
	if got := s.reg.Counter("server_spool_quarantined_total", nil).Value(); got != 6 {
		t.Fatalf("server_spool_quarantined_total = %d, want 6", got)
	}
}

// TestStaleCellRecordsNeverReplay: a record is replayed only when its
// own fields hash to the name it is looked up under. Records another
// build wrote (DigestEpoch-1) under their own keys are never read; one
// planted under a current key, and one copied from another cell's name,
// are quarantined. The served payload is the offline one.
func TestStaleCellRecordsNeverReplay(t *testing.T) {
	spool := t.TempDir()
	norm := mustNormalize(t, diffSpec("stale"))
	grid := specGrid(t, norm)
	cells := grid.Cells()
	other := diffSpec("other")
	other.Seed = 43
	var foreign ResultPayload // another run's metrics, cell by cell
	if err := json.Unmarshal(offlinePayload(t, other, 1), &foreign); err != nil {
		t.Fatal(err)
	}
	plant := func(name string, rec cellRecord) {
		t.Helper()
		if err := writeJSONAtomic(cellPath(spool, name), rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, cell := range cells {
		rec := cellRecord{CellKey: grid.CellKey(cell), Metrics: foreign.Tasks[i].Metrics}
		rec.Epoch = experiments.DigestEpoch - 1
		plant(rec.Hash(), rec)
		if i == 0 { // the old build's record under this build's key
			plant(grid.CellKey(cell).Hash(), rec)
		}
	}
	moved := cellRecord{CellKey: grid.CellKey(cells[2]), Metrics: foreign.Tasks[1].Metrics}
	plant(grid.CellKey(cells[1]).Hash(), moved) // fields say cell 2, name says cell 1

	s := startServer(t, Options{SpoolDir: spool}, nil)
	if _, err := s.Submit(context.Background(), norm); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, "stale"); st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if got, want := mustResult(t, s, "stale"), offlinePayload(t, norm, 1); !bytes.Equal(got, want) {
		t.Fatal("payload replayed a stale or misnamed record")
	}
	if got := s.reg.Counter("server_cell_records_reused_total", nil).Value(); got != 0 {
		t.Fatalf("server_cell_records_reused_total = %d, want 0", got)
	}
	warnings := s.SpoolWarnings()
	if len(warnings) != 2 {
		t.Fatalf("SpoolWarnings() = %v, want 2 quarantines", warnings)
	}
	for _, w := range warnings {
		if !errors.Is(w, errs.ErrSpoolCorrupt) || !strings.Contains(w.Error(), "not to its name") {
			t.Errorf("warning %v is not a misnamed-record quarantine", w)
		}
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

func mustResult(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	data, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointResumeDigest is the drain-cut regression pin: a job cut
// down by a drain after completing exactly one grid cell leaves one cell
// record and its spool file, and a restarted server — driven over HTTP
// like a real client — resumes it to the byte-identical payload the
// offline sweep (and hence an uninterrupted server run) produces, then
// removes the spool file.
func TestCheckpointResumeDigest(t *testing.T) {
	spool := t.TempDir()
	spec := diffSpec("resume-me")
	spec.Workers = 1 // cells run serially: the cut point is exact

	firstCell := make(chan struct{}, 1)
	release := make(chan struct{})
	s1 := startServer(t, Options{JobWorkers: 1, SpoolDir: spool}, func(s *Server) {
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
	// Release the held worker only once the drain has cut the job, so
	// no second cell can complete.
	for {
		s1.mu.Lock()
		isCut := s1.jobs["resume-me"].cut
		s1.mu.Unlock()
		if isCut {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-shutdownDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown err = %v, want context.Canceled (cut drain)", err)
	}
	if st, _ := s1.Status("resume-me"); st.State != StateCanceled {
		t.Fatalf("state after cut = %s, want canceled", st.State)
	}
	if recs := records(t, spool); len(recs) != 1 {
		t.Fatalf("cells/ holds %d records, want 1 (cut after the first cell)", len(recs))
	}
	specFile := filepath.Join(spool, "00000000-resume-me.json")
	if _, err := os.Stat(specFile); err != nil {
		t.Fatalf("the cut job's spool file is gone: %v", err)
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
	if n := s2.reg.Counter("server_cell_records_reused_total", nil).Value(); n != 1 {
		t.Fatalf("server_cell_records_reused_total = %d, want 1", n)
	}
	// The resumed job settled cleanly: its spool file is removed.
	if _, err := os.Stat(specFile); !os.IsNotExist(err) {
		t.Fatalf("spool file still present after the resumed job settled (err %v)", err)
	}
}

// TestCheckpointPeriodicFlush: an abrupt kill needs no knob. Stopping
// the server under a running job (its Start context cancelled, no
// Shutdown) after two cells leaves those cells' records and the job's
// spool file; a new server on the same spool re-admits the job, runs
// only the missing cells and serves the offline payload.
func TestCheckpointPeriodicFlush(t *testing.T) {
	spool := t.TempDir()
	spec := diffSpec("killed")
	spec.Workers = 1
	total := len(gridCells(t, mustNormalize(t, spec)))

	s1, err := New(Options{Clock: testClock(), JobWorkers: 1, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	s1.afterTask = func(j *job, _ int) {
		s1.mu.Lock()
		done := j.tasksDone
		s1.mu.Unlock()
		if done == 2 {
			kill()
		}
	}
	if err := s1.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit(context.Background(), spec); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitTerminal(t, s1, "killed"); st.State != StateCanceled {
		t.Fatalf("state after the kill = %s, want canceled", st.State)
	}
	if recs := records(t, spool); len(recs) != 2 {
		t.Fatalf("cells/ holds %d records after the kill, want 2", len(recs))
	}

	s2 := startServer(t, Options{SpoolDir: spool}, nil)
	if st := waitTerminal(t, s2, "killed"); st.State != StateDone {
		t.Fatalf("resumed state = %s (err %q), want done", st.State, st.Error)
	}
	if got, want := mustResult(t, s2, "killed"), offlinePayload(t, spec, 1); !bytes.Equal(got, want) {
		t.Fatal("resumed payload differs from offline payload")
	}
	reused := s2.reg.Counter("server_cell_records_reused_total", nil).Value()
	written := s2.reg.Counter("server_cell_records_written_total", nil).Value()
	if reused != 2 || written != uint64(total-2) {
		t.Fatalf("restart reused %d and ran %d cells, want 2 and %d", reused, written, total-2)
	}
}

// TestWriteFileAtomicConcurrent: concurrent writers of one path each
// get their own temp file, so every install succeeds and the file ends
// holding exactly one writer's whole payload.
func TestWriteFileAtomicConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "record.json")
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

// TestCheckpointConcurrentFlush: a job at eight sweep workers writes its
// records concurrently without a warning, and a second job of the same
// spec under another ID replays every cell from them — to the same
// payload.
func TestCheckpointConcurrentFlush(t *testing.T) {
	spool := t.TempDir()
	s := startServer(t, Options{JobWorkers: 1, SpoolDir: spool}, nil)
	spec := JobSpec{
		Workloads:     []string{"microbenchmark", "volano", "microbenchmark", "volano"},
		Policies:      []string{"default", "round-robin"},
		Topos:         []string{"open720", "power5-32"},
		Seed:          3,
		WarmRounds:    1,
		EngineRounds:  1,
		MeasureRounds: 1,
		Workers:       8,
	}
	total := uint64(len(gridCells(t, mustNormalize(t, spec))))
	var payloads [][]byte
	for _, id := range []string{"first", "second"} {
		spec.ID = id
		if _, err := s.Submit(context.Background(), spec); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("%s state = %s (err %q), want done", id, st.State, st.Error)
		}
		payloads = append(payloads, mustResult(t, s, id))
	}
	if w := s.SpoolWarnings(); len(w) != 0 {
		t.Fatalf("SpoolWarnings() = %v, want none", w)
	}
	if n := s.reg.Counter("server_cell_records_written_total", nil).Value(); n != total {
		t.Fatalf("server_cell_records_written_total = %d, want %d (first job only)", n, total)
	}
	if n := s.reg.Counter("server_cell_records_reused_total", nil).Value(); n != total {
		t.Fatalf("server_cell_records_reused_total = %d, want %d (second job all hits)", n, total)
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Fatal("the all-hit job's payload differs from the computed one")
	}
}

// TestAbandonedServerResumesEveryJob: a server abandoned without
// Shutdown — its Start context cancelled with one job running and one
// queued — leaves both jobs' spool files, as a SIGKILL would, and a
// restart on the same spool runs both to the payloads a fresh server
// gives. The abandoned worker is held where the kill found it until the
// test ends, so nothing it does afterwards reaches the spool.
func TestAbandonedServerResumesEveryJob(t *testing.T) {
	spool := t.TempDir()
	running, queued := diffSpec("running"), smallSpec("queued")
	running.Workers = 1

	s1, err := New(Options{Clock: testClock(), JobWorkers: 1, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	admitted, killed, frozen := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var once sync.Once
	s1.beforeJob = func(*job) { <-admitted }
	s1.afterTask = func(*job, int) {
		once.Do(func() {
			kill()
			close(killed)
			<-frozen
		})
	}
	if err := s1.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(frozen)
		s1.wg.Wait()
	})
	for _, spec := range []JobSpec{running, queued} {
		if _, err := s1.Submit(context.Background(), spec); err != nil {
			t.Fatalf("Submit %s: %v", spec.ID, err)
		}
	}
	close(admitted)
	<-killed

	entries, err := listSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"00000000-running.json", "00000001-queued.json"}; strings.Join(entries, " ") != strings.Join(want, " ") {
		t.Errorf("spool after the kill = %v, want %v", entries, want)
	}

	s2 := startServer(t, Options{SpoolDir: spool}, nil)
	fresh := startServer(t, Options{}, nil)
	for _, spec := range []JobSpec{running, queued} {
		if st := waitTerminal(t, s2, spec.ID); st.State != StateDone {
			t.Fatalf("resumed %s state = %s (err %q), want done", spec.ID, st.State, st.Error)
		}
		if _, err := fresh.Submit(context.Background(), spec); err != nil {
			t.Fatalf("fresh Submit %s: %v", spec.ID, err)
		}
		if st := waitTerminal(t, fresh, spec.ID); st.State != StateDone {
			t.Fatalf("fresh %s state = %s, want done", spec.ID, st.State)
		}
		if !bytes.Equal(mustResult(t, s2, spec.ID), mustResult(t, fresh, spec.ID)) {
			t.Fatalf("%s: resumed payload differs from a fresh server's", spec.ID)
		}
	}
	if n := s2.reg.Counter("server_cell_records_reused_total", nil).Value(); n != 1 {
		t.Fatalf("server_cell_records_reused_total = %d, want 1 (the cell finished before the kill)", n)
	}
	if entries, err := listSpool(spool); err != nil || len(entries) != 0 {
		t.Fatalf("spool after both jobs settled = %v (err %v), want none", entries, err)
	}
}

// TestCellRecordsReplayAcrossGrids: a cell's record serves every later
// job whose grid holds the cell with the same seed. One spool serves a
// grid from a legacy spec naming the seq engine, the same grid with no
// engine (Normalize drops the legacy field), that grid with one
// workload appended, then with one policy appended too. Each job
// computes and records only its new cells, replays the old ones, and
// serves the offline payload.
func TestCellRecordsReplayAcrossGrids(t *testing.T) {
	spool := t.TempDir()
	s := startServer(t, Options{JobWorkers: 1, SpoolDir: spool}, nil)
	seq, grown, wider := diffSpec("on-seq"), diffSpec("grown"), diffSpec("wider")
	seq.Engine = "seq"
	grown.Workloads = append(grown.Workloads, "rubis")
	wider.Workloads, wider.Policies = grown.Workloads, append(wider.Policies, "round-robin")
	var written, reused uint64
	for _, step := range []struct {
		spec   JobSpec
		replay uint64
	}{
		{seq, 0},
		{diffSpec("on-parallel"), 4},
		{grown, 4},
		{wider, 6},
	} {
		id := step.spec.ID
		if _, err := s.Submit(context.Background(), step.spec); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("%s state = %s (err %q), want done", id, st.State, st.Error)
		}
		total := uint64(len(gridCells(t, mustNormalize(t, step.spec))))
		w := s.reg.Counter("server_cell_records_written_total", nil).Value()
		r := s.reg.Counter("server_cell_records_reused_total", nil).Value()
		if w-written != total-step.replay || r-reused != step.replay {
			t.Fatalf("%s wrote %d and reused %d of %d cells, want %d and %d",
				id, w-written, r-reused, total, total-step.replay, step.replay)
		}
		written, reused = w, r
		if !bytes.Equal(mustResult(t, s, id), offlinePayload(t, step.spec, 1)) {
			t.Fatalf("%s payload differs from the offline payload", id)
		}
	}
	if w := s.SpoolWarnings(); len(w) != 0 {
		t.Fatalf("SpoolWarnings() = %v, want none", w)
	}
}
