package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
)

// Spool format: one JSON JobSpec per file, named
// "<zero-padded seq>-<job id>.json" so lexical directory order is
// admission order. The files are plain specs — replayable by hand with
// `tcsim submit -spec file.json` as well as by a restarting server —
// and because a job's result is a pure function of its spec, a re-run
// after restart produces the byte-identical payload the original
// admission would have.
//
// Checkpoint format: one JSON Checkpoint per running job, named
// "<job id>.ckpt" beside the spool specs. A checkpoint carries the
// normalized spec plus every completed grid cell's metrics snapshot;
// grid cells are independent machines with spec-derived seeds
// (sweep.DeriveSeed), so a resumed job restores the recorded cells and
// re-runs only the missing ones, producing the byte-identical payload
// an uninterrupted run yields. Checkpoints are flushed every
// Options.CheckpointEvery completed cells and when a graceful drain
// cuts a running job; a job that settles normally deletes its file.
//
// Files that fail to parse or validate at re-admission are quarantined:
// renamed to "<name>.quarantine", recorded as an errs.ErrSpoolCorrupt
// warning (SpoolWarnings), counted in server_spool_quarantined_total —
// and the daemon keeps starting.
//
// Every file in the spool — spec or checkpoint — is written to a temp
// name and renamed into place, so a crash mid-write never leaves a
// truncated file where a valid one stood (or would have).
//
// The fleet coordinator's "<job id>.fleetckpt" files are the same
// Checkpoint, validated, saved and quarantined by the same code.

const (
	checkpointSuffix = ".ckpt"
	spoolSuffix      = ".json"
	tmpSuffix        = ".tmp"
	// QuarantineSuffix is appended to the name of a spool or checkpoint
	// file that failed to parse or validate.
	QuarantineSuffix = ".quarantine"
)

// Checkpoint is the on-disk form of a running job's progress.
type Checkpoint struct {
	// Spec is the job's normalized spec; the grid (and every cell seed)
	// derives from it.
	Spec JobSpec `json:"spec"`
	// Cells lists the completed grid cells in grid-index order.
	Cells []CheckpointCell `json:"cells"`
}

// CheckpointCell is one completed grid cell: its position, identity and
// the metrics snapshot the re-assembled payload will carry for it.
type CheckpointCell struct {
	Index   int              `json:"index"`
	Name    string           `json:"name"`
	Seed    int64            `json:"seed"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// NewCheckpoint snapshots a job's completed cells, in grid-index order.
func NewCheckpoint(spec JobSpec, completed map[int]CheckpointCell) *Checkpoint {
	cells := make([]CheckpointCell, 0, len(completed))
	for _, cc := range completed {
		cells = append(cells, cc)
	}
	sort.Slice(cells, func(i, k int) bool { return cells[i].Index < cells[k].Index })
	return &Checkpoint{Spec: spec, Cells: cells}
}

// Validate checks the checkpoint's cells against the grid cells its job
// runs, returning the completed-cell map a resumed job starts from.
func (cf Checkpoint) Validate(cells []experiments.GridCell) (map[int]CheckpointCell, error) {
	completed := make(map[int]CheckpointCell, len(cf.Cells))
	for _, cc := range cf.Cells {
		if cc.Index < 0 || cc.Index >= len(cells) {
			return nil, fmt.Errorf("cell index %d outside grid of %d cells", cc.Index, len(cells))
		}
		if _, dup := completed[cc.Index]; dup {
			return nil, fmt.Errorf("duplicate cell index %d", cc.Index)
		}
		want := cells[cc.Index]
		if cc.Name != want.Name() || cc.Seed != want.Seed {
			return nil, fmt.Errorf("cell %d is %q seed %d, grid says %q seed %d",
				cc.Index, cc.Name, cc.Seed, want.Name(), want.Seed)
		}
		completed[cc.Index] = cc
	}
	return completed, nil
}

// Save atomically persists the checkpoint at path, creating the
// directory if needed.
func (cf Checkpoint) Save(path string) error {
	return writeJSONAtomic(path, cf)
}

// writeJSONAtomic writes v as indented JSON through WriteFileAtomic.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling: %w", err)
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// WriteFileAtomic writes data to a unique temp file beside path, syncs
// it and renames it into place, creating the directory if needed, so a
// crash mid-write never leaves a truncated file under the real name and
// concurrent writers of one path never share a temp file. The file is
// created with mode 0666 less the umask, like os.WriteFile. Every file
// the tree persists (spooled specs, checkpoints, machine snapshots) goes
// through it. A crash mid-write can leave a "<name>.<pid>.<n>.tmp" file
// behind; tcsimd removes those from its spool at start (loadSpool).
func WriteFileAtomic(path string, data []byte) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("creating directory: %w", err)
	}
	f, err := createTemp(path)
	if err != nil {
		return fmt.Errorf("writing: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("writing: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("syncing: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing: %w", err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("installing: %w", err)
	}
	return nil
}

// tmpSeq numbers this process's temp files.
var tmpSeq atomic.Uint64

// createTemp opens a new temp file beside path. The pid and a
// per-process sequence number keep concurrent writers apart; O_EXCL
// skips a name a crashed process left behind. Unlike os.CreateTemp
// (always 0600) it honours the umask.
func createTemp(path string) (*os.File, error) {
	for {
		name := fmt.Sprintf("%s.%d.%d%s", path, os.Getpid(), tmpSeq.Add(1), tmpSuffix)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// Quarantine renames a bad spool or checkpoint file aside and returns
// the errs.ErrSpoolCorrupt warning to record for it.
func Quarantine(path string, cause error) error {
	werr := fmt.Errorf("%w: %s: %v", errs.ErrSpoolCorrupt, filepath.Base(path), cause)
	if err := os.Rename(path, path+QuarantineSuffix); err != nil {
		werr = fmt.Errorf("%w (quarantine rename failed: %v)", werr, err)
	}
	return werr
}

// spool persists queued-but-unstarted jobs (in admission order) to
// Options.SpoolDir. A nil SpoolDir drops them (the jobs were never
// started; their specs are the client's to resubmit).
func (s *Server) spool(queued []*job) error {
	if s.opt.SpoolDir == "" || len(queued) == 0 {
		return nil
	}
	for i, j := range queued {
		name := fmt.Sprintf("%08d-%s%s", i, j.spec.ID, spoolSuffix)
		if err := writeJSONAtomic(filepath.Join(s.opt.SpoolDir, name), j.spec); err != nil {
			return fmt.Errorf("server: spooling job %q: %w", j.spec.ID, err)
		}
		s.mJobsSpooled.Inc()
	}
	return nil
}

// loadSpool re-admits persisted work found in SpoolDir: checkpoints of
// cut-down running jobs first (they were admitted before anything that
// was still queued at shutdown), then spooled specs, each group in
// lexical (= original admission) order. Spec files are deleted once
// their job is back in the queue; checkpoint files stay until the
// resumed job settles, so a crash between re-admission and completion
// still resumes. Jobs that no longer fit (queue depth, token pool)
// remain on disk for the next start. Files that fail to parse or
// validate are quarantined and reported through SpoolWarnings — a
// corrupt file never stops the daemon from starting. Temp files a crash
// left mid-write are removed: nothing is writing yet.
func (s *Server) loadSpool() error {
	if s.opt.SpoolDir == "" {
		return nil
	}
	entries, err := os.ReadDir(s.opt.SpoolDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: reading spool dir: %w", err)
	}
	var ckpts, specs []string
	for _, e := range entries {
		switch {
		case e.IsDir():
		case strings.HasSuffix(e.Name(), tmpSuffix):
			if err := os.Remove(filepath.Join(s.opt.SpoolDir, e.Name())); err != nil && !os.IsNotExist(err) {
				s.mu.Lock()
				s.spoolWarnings = append(s.spoolWarnings, fmt.Errorf("server: removing stale temp file: %w", err))
				s.mu.Unlock()
			}
		case strings.HasSuffix(e.Name(), checkpointSuffix):
			ckpts = append(ckpts, e.Name())
		case strings.HasSuffix(e.Name(), spoolSuffix):
			specs = append(specs, e.Name())
		}
	}
	sort.Strings(ckpts)
	sort.Strings(specs)

	for _, name := range ckpts {
		full, err := s.readmitCheckpoint(name)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		if full {
			return nil // no room this start; the rest stays on disk
		}
	}
	for _, name := range specs {
		path := filepath.Join(s.opt.SpoolDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("server: reading spooled spec %s: %w", name, err)
		}
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			s.quarantine(name, fmt.Errorf("parsing spec: %w", err))
			continue
		}
		full, err := s.readmit(spec, nil)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		if full {
			return nil
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("server: removing spooled spec %s: %w", name, err)
		}
	}
	return nil
}

// readmitCheckpoint loads, validates and re-admits one checkpoint file.
// Returns full=true when the queue had no room (the file stays for the
// next start); any error means the file is corrupt or no longer
// admissible and should be quarantined.
func (s *Server) readmitCheckpoint(name string) (full bool, err error) {
	data, err := os.ReadFile(filepath.Join(s.opt.SpoolDir, name))
	if err != nil {
		return false, fmt.Errorf("reading checkpoint: %w", err)
	}
	spec, completed, err := ReadCheckpoint(data)
	if err != nil {
		return false, err
	}
	return s.readmit(spec, completed)
}

// ReadCheckpoint parses and validates a tcsimd checkpoint file: its spec
// must normalize, carry a job ID and compile, and its cells must match
// that grid. It returns the spec as written and the completed-cell map
// a resumed job starts from.
func ReadCheckpoint(data []byte) (JobSpec, map[int]CheckpointCell, error) {
	var cf Checkpoint
	if err := json.Unmarshal(data, &cf); err != nil {
		return JobSpec{}, nil, fmt.Errorf("parsing checkpoint: %w", err)
	}
	norm, err := cf.Spec.Normalize()
	if err != nil {
		return JobSpec{}, nil, fmt.Errorf("validating checkpointed spec: %w", err)
	}
	if norm.ID == "" {
		return JobSpec{}, nil, fmt.Errorf("checkpointed spec has no job ID")
	}
	cells, _, err := norm.compile()
	if err != nil {
		return JobSpec{}, nil, fmt.Errorf("compiling checkpointed grid: %w", err)
	}
	completed, err := cf.Validate(cells)
	if err != nil {
		return JobSpec{}, nil, err
	}
	return cf.Spec, completed, nil
}

// readmit normalizes and admits one persisted spec, seeding the job with
// any checkpointed cells. full=true means the queue rejected it with
// backpressure (leave the file; stop re-admitting); an error means the
// spec itself is unusable (quarantine it).
func (s *Server) readmit(spec JobSpec, completed map[int]CheckpointCell) (full bool, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return false, fmt.Errorf("validating spec: %w", err)
	}
	// A spool carrying the same job ID twice (a checkpoint plus a stale
	// spec, or an operator-copied file) must not double-queue the job:
	// the second file is a bad config, quarantined like any other
	// invalid spec, and the first admission stands.
	if norm.ID != "" {
		s.mu.Lock()
		_, dup := s.jobs[norm.ID]
		s.mu.Unlock()
		if dup {
			return false, fmt.Errorf("%w: duplicate job ID %q in spool (already re-admitted this start)", errs.ErrBadConfig, norm.ID)
		}
	}
	cost := norm.Cost()
	if cost > s.opt.MaxJobCost {
		return false, fmt.Errorf("cost %d exceeds per-job budget %d", cost, s.opt.MaxJobCost)
	}
	if _, err := s.admit(norm, cost, completed); err != nil {
		if errors.Is(err, errs.ErrOverloaded) {
			return true, nil
		}
		return false, fmt.Errorf("re-admitting: %w", err)
	}
	s.mJobsReadmitted.Inc()
	return false, nil
}

// quarantine renames a bad spool/checkpoint file aside and records the
// structured warning. The daemon keeps starting: a corrupt file costs
// one job, not the whole service.
func (s *Server) quarantine(name string, cause error) {
	werr := Quarantine(filepath.Join(s.opt.SpoolDir, name), cause)
	s.mSpoolQuarantined.Inc()
	s.mu.Lock()
	s.spoolWarnings = append(s.spoolWarnings, fmt.Errorf("server: %w", werr))
	s.mu.Unlock()
}

// SpoolWarnings returns the structured warnings Start accumulated while
// re-admitting persisted work: one errs.ErrSpoolCorrupt-wrapping error
// per quarantined file plus any checkpoint-write failures, in
// occurrence order. Empty on a clean start.
func (s *Server) SpoolWarnings() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.spoolWarnings...)
}

// writeCheckpoint persists a job's checkpoint file. Installs are
// serialized per job, and a checkpoint with fewer cells than the one
// already installed is dropped: the job's completed set only grows, so
// it is an older snapshot. Failures are recorded as warnings, not job
// failures: losing a checkpoint costs resumability, not correctness.
func (s *Server) writeCheckpoint(j *job, cp *Checkpoint) {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	if len(cp.Cells) < j.ckptCells {
		return
	}
	if err := cp.Save(filepath.Join(s.opt.SpoolDir, cp.Spec.ID+checkpointSuffix)); err != nil {
		s.mu.Lock()
		s.spoolWarnings = append(s.spoolWarnings, fmt.Errorf("server: checkpoint %q: %w", cp.Spec.ID, err))
		s.mu.Unlock()
		return
	}
	j.ckptCells = len(cp.Cells)
	s.mCheckpoints.Inc()
}

// removeCheckpoint deletes a settled job's checkpoint file, if any.
func (s *Server) removeCheckpoint(id string) {
	err := os.Remove(filepath.Join(s.opt.SpoolDir, id+checkpointSuffix))
	if err != nil && !os.IsNotExist(err) {
		s.mu.Lock()
		s.spoolWarnings = append(s.spoolWarnings, fmt.Errorf("server: removing checkpoint %q: %w", id, err))
		s.mu.Unlock()
	}
}
