package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"threadcluster/internal/errs"
)

// Spool format: every admitted job that has not settled is one file,
// "<zero-padded seq>-<job id>.json", holding its normalized JobSpec.
// Admission writes it before the job is queued and settling removes it,
// unless a drain or a server stop cut the running job down; a job still
// queued at shutdown or caught by a kill keeps it. The seq is one
// counter for admission order, file names and anonymous IDs. The files
// are plain specs — replayable by hand with `tcsim sweep -spec
// file.json` as well as by a restarting server — and because a job's
// result is a pure function of its spec, a re-run after restart produces
// the byte-identical payload the original admission would have. The
// cells a job completed before it was cut are cell records (cells.go),
// so its re-run replays them instead of simulating them again.
//
// Files misnamed, or failing to parse or validate, at re-admission are
// quarantined: renamed to "<name>.quarantine", recorded as an
// errs.ErrSpoolCorrupt warning (SpoolWarnings), counted in
// server_spool_quarantined_total — and the daemon keeps starting.
//
// Every file in the spool — spec or cell record — is written to a temp
// name and renamed into place, so a crash mid-write never leaves a
// truncated file where a valid one stood (or would have).

const (
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
// the tree persists (spooled specs, cell records, machine
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

// spoolFile is a job's place in the spool: its admission seq and ID,
// which together name its file.
type spoolFile struct {
	seq uint64
	id  string
}

func (f spoolFile) name() string { return fmt.Sprintf("%08d-%s%s", f.seq, f.id, spoolSuffix) }

// parseSpoolName reads the seq and job ID out of a spool file's name,
// which must be exactly the name admission gives them.
func parseSpoolName(name string) (spoolFile, bool) {
	seq, id, _ := strings.Cut(strings.TrimSuffix(name, spoolSuffix), "-")
	n, err := strconv.ParseUint(seq, 10, 64)
	f := spoolFile{seq: n, id: id}
	return f, err == nil && id != "" && f.name() == name
}

// spoolPath is the path of the spool file of job j.
func (s *Server) spoolPath(j *job) string {
	return filepath.Join(s.opt.SpoolDir, spoolFile{j.seq, j.spec.ID}.name())
}

// unspool removes job j's spool file.
func (s *Server) unspool(j *job) {
	if err := os.Remove(s.spoolPath(j)); err != nil && !os.IsNotExist(err) {
		s.warn(fmt.Errorf("removing spool file of %q: %w", j.spec.ID, err))
	}
}

// loadSpool re-admits the unsettled jobs found in SpoolDir in seq
// order, each under the seq and file it was spooled with, and resumes
// nextSeq after the largest seq any file names. Jobs that no longer fit
// (queue depth, token pool) remain on disk for the next start. Files
// that fail to parse or validate are quarantined and reported through
// SpoolWarnings — a corrupt file never stops the daemon from starting.
// Temp files a crash left mid-write, beside the specs or among the cell
// records, are removed: nothing is writing yet.
func (s *Server) loadSpool() error {
	if s.opt.SpoolDir == "" {
		return nil
	}
	var files []spoolFile
	var next uint64
	for _, dir := range []string{s.opt.SpoolDir, filepath.Join(s.opt.SpoolDir, cellsDir)} {
		entries, err := os.ReadDir(dir)
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
			case strings.HasSuffix(name, spoolSuffix):
				f, ok := parseSpoolName(name)
				if !ok {
					s.quarantine(name, fmt.Errorf("spool file name is not <seq>-<id>%s", spoolSuffix))
					continue
				}
				files = append(files, f)
				next = max(next, f.seq+1)
			}
		}
	}
	s.mu.Lock()
	s.nextSeq = max(s.nextSeq, next)
	s.mu.Unlock()
	sort.SliceStable(files, func(i, k int) bool { return files[i].seq < files[k].seq })
	for _, f := range files {
		full, err := s.readmit(f)
		if err != nil {
			s.quarantine(f.name(), err)
			continue
		}
		if full {
			return nil // no room this start; the rest stays on disk
		}
	}
	return nil
}

// readmit reads, validates and admits one spool file under the seq it
// was spooled with. full=true means the queue rejected it with
// backpressure (leave the file; stop re-admitting); an error means the
// file is unusable (quarantine it).
func (s *Server) readmit(f spoolFile) (full bool, err error) {
	data, err := os.ReadFile(filepath.Join(s.opt.SpoolDir, f.name()))
	if err != nil {
		return false, fmt.Errorf("reading spec: %w", err)
	}
	var spec JobSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("parsing spec: %w", err)
	}
	// Settling removes a file by its job's ID; one holding another ID
	// would be re-admitted at every start.
	if spec.ID != f.id {
		return false, fmt.Errorf("spool file holds job ID %q", spec.ID)
	}
	norm, err := spec.Normalize()
	if err != nil {
		return false, fmt.Errorf("validating spec: %w", err)
	}
	cost := norm.Cost()
	if cost > s.opt.MaxJobCost {
		return false, fmt.Errorf("cost %d exceeds per-job budget %d", cost, s.opt.MaxJobCost)
	}
	_, err = s.admit(norm, cost, &f)
	switch {
	case err == nil:
		s.mJobsReadmitted.Inc()
		return false, nil
	case errors.Is(err, errs.ErrOverloaded):
		return true, nil
	case errors.Is(err, errs.ErrJobExists):
		// One job ID in two files (a copied file, or a resubmission of a
		// job left on disk) is a bad config; the first admission stands.
		return false, fmt.Errorf("%w: duplicate job ID %q in spool (already re-admitted this start)", errs.ErrBadConfig, norm.ID)
	}
	return false, fmt.Errorf("re-admitting: %w", err)
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
