package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"threadcluster/internal/errs"
)

// Spool format: one JSON JobSpec per file. Queued-but-unstarted jobs
// are spooled at shutdown as "<zero-padded seq>-<job id>.json", so
// lexical directory order is admission order; a running job's spec is
// "<job id>.run" from its start until it settles (a job cut down by a
// drain, or by the server stopping under it, keeps its run file). The
// files are plain specs — replayable by hand with `tcsim submit -spec
// file.json` as well as by a restarting server — and because a job's
// result is a pure function of its spec, a re-run after restart produces
// the byte-identical payload the original admission would have. The
// cells a job completed before it was cut are cell records (cells.go),
// so its re-run replays them instead of simulating them again.
//
// Files that fail to parse or validate at re-admission are quarantined:
// renamed to "<name>.quarantine", recorded as an errs.ErrSpoolCorrupt
// warning (SpoolWarnings), counted in server_spool_quarantined_total —
// and the daemon keeps starting.
//
// Every file in the spool — spec, run file or cell record — is written
// to a temp name and renamed into place, so a crash mid-write never
// leaves a truncated file where a valid one stood (or would have).

const (
	runSuffix   = ".run"
	spoolSuffix = ".json"
	tmpSuffix   = ".tmp"
	// QuarantineSuffix is appended to the name of a spool file or cell
	// record that failed to parse or validate.
	QuarantineSuffix = ".quarantine"
)

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
// the tree persists (spooled specs, run files, cell records, machine
// snapshots) goes through it. A crash mid-write can leave a
// "<name>.<pid>.<n>.tmp" file behind; tcsimd removes those from its
// spool at start (loadSpool).
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

// Quarantine renames a bad spool file or cell record aside and returns
// the errs.ErrSpoolCorrupt warning to record for it.
func Quarantine(path string, cause error) error {
	werr := fmt.Errorf("%w: %s: %v", errs.ErrSpoolCorrupt, filepath.Base(path), cause)
	if err := os.Rename(path, path+QuarantineSuffix); err != nil {
		werr = fmt.Errorf("%w (quarantine rename failed: %v)", werr, err)
	}
	return werr
}

// spool persists queued-but-unstarted jobs (in admission order) to
// Options.SpoolDir, retiring the run file a re-admitted job still holds
// from the start before. A nil SpoolDir drops them (the jobs were never
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
		if err := os.Remove(s.runPath(j.spec.ID)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("server: retiring run file of spooled job %q: %w", j.spec.ID, err)
		}
		s.mJobsSpooled.Inc()
	}
	return nil
}

// runPath names a running job's run file.
func (s *Server) runPath(id string) string {
	return filepath.Join(s.opt.SpoolDir, id+runSuffix)
}

// loadSpool re-admits persisted work found in SpoolDir: the run files of
// cut-down running jobs first (they were admitted before anything that
// was still queued at shutdown), then spooled specs, each group in
// lexical (= original admission) order. Spec files are deleted once
// their job is back in the queue; a run file stays until its job
// settles, so a crash before then re-admits the job again. Jobs that no
// longer fit (queue depth, token pool) remain on disk for the next
// start. Files that fail to parse or validate are quarantined and
// reported through SpoolWarnings — a corrupt file never stops the daemon
// from starting. Temp files a crash left mid-write, beside the specs or
// among the cell records, are removed: nothing is writing yet.
func (s *Server) loadSpool() error {
	if s.opt.SpoolDir == "" {
		return nil
	}
	var runs, specs []string
	for _, dir := range []string{s.opt.SpoolDir, filepath.Join(s.opt.SpoolDir, cellsDir)} {
		entries, err := os.ReadDir(dir) // sorted by name
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("server: reading spool dir: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			switch {
			case e.IsDir():
			case strings.HasSuffix(name, tmpSuffix):
				if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
					s.warn(fmt.Errorf("removing stale temp file: %w", err))
				}
			case dir != s.opt.SpoolDir: // cell records are looked up, not re-admitted
			case strings.HasSuffix(name, runSuffix):
				runs = append(runs, name)
			case strings.HasSuffix(name, spoolSuffix):
				specs = append(specs, name)
			}
		}
	}
	for _, name := range append(runs, specs...) {
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
		// A run file is retired by its job's ID at settle; one holding
		// another ID would be re-admitted at every start.
		id, isRun := strings.CutSuffix(name, runSuffix)
		if isRun && spec.ID != id {
			s.quarantine(name, fmt.Errorf("run file holds job ID %q", spec.ID))
			continue
		}
		full, err := s.readmit(spec)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		if full {
			return nil // no room this start; the rest stays on disk
		}
		if !isRun {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("server: removing spooled spec %s: %w", name, err)
			}
		}
	}
	return nil
}

// readmit normalizes and admits one persisted spec. full=true means the
// queue rejected it with backpressure (leave the file; stop
// re-admitting); an error means the spec itself is unusable (quarantine
// it).
func (s *Server) readmit(spec JobSpec) (full bool, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return false, fmt.Errorf("validating spec: %w", err)
	}
	// A spool carrying the same job ID twice (a run file plus a stale
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
	if _, err := s.admit(norm, cost); err != nil {
		if errors.Is(err, errs.ErrOverloaded) {
			return true, nil
		}
		return false, fmt.Errorf("re-admitting: %w", err)
	}
	s.mJobsReadmitted.Inc()
	return false, nil
}

// quarantine renames a bad spool file aside and records the structured
// warning. The daemon keeps starting: a corrupt file costs one job, not
// the whole service.
func (s *Server) quarantine(name string, cause error) {
	s.mSpoolQuarantined.Inc()
	s.warn(Quarantine(filepath.Join(s.opt.SpoolDir, name), cause))
}

// warn records a non-fatal spool problem for SpoolWarnings.
func (s *Server) warn(err error) {
	s.mu.Lock()
	s.spoolWarnings = append(s.spoolWarnings, fmt.Errorf("server: %w", err))
	s.mu.Unlock()
}

// SpoolWarnings returns the structured warnings accumulated while
// re-admitting persisted work and recording cells: one
// errs.ErrSpoolCorrupt-wrapping error per quarantined file plus any
// spool write failures, in occurrence order. Empty on a clean run.
func (s *Server) SpoolWarnings() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.spoolWarnings...)
}
