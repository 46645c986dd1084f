package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
)

// Cell records: every successfully computed grid cell is written once,
// as "<spool>/cells/<key>.json", where key is the cell's
// experiments.CellKey hash: the digest epoch, the cell's name and its
// Options, never its position in the job's grid. tcsimd and the fleet
// coordinator share the format, so resuming a job, resubmitting it
// under a new ID or running any grid that holds the cell with the same
// seed replays the record instead of simulating the cell.
// sim.SnapshotVersion is not part of the key: it versions the .snap
// encoding, and no record holds one.
//
// A record is immutable: concurrent writers of one key write identical
// bytes, so nothing orders them, and nothing deletes them (removing
// cells/ costs only recomputation). Errored cells are never recorded.

const cellsDir = "cells"

// cellRecord is one completed cell: its key's inputs and its metrics.
type cellRecord struct {
	experiments.CellKey
	Metrics metrics.Snapshot `json:"metrics"`
}

func cellPath(spoolDir, key string) string {
	return filepath.Join(spoolDir, cellsDir, key+spoolSuffix)
}

// decodeCellRecord parses the record stored under key and requires its
// own fields to hash to key: a record written by another build (another
// DigestEpoch) or in another format, for another cell, or copied under
// the wrong name is refused.
func decodeCellRecord(data []byte, key string) (cellRecord, error) {
	var rec cellRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return cellRecord{}, fmt.Errorf("parsing cell record: %w", err)
	}
	if got := rec.Hash(); got != key {
		return cellRecord{}, fmt.Errorf("cell record's fields hash to %s, not to its name", got)
	}
	return rec, nil
}

// LookupCell returns the recorded metrics of cell of grid g from
// spoolDir's records. ok is false on a miss. A record that fails to
// decode or whose fields do not hash to its name is quarantined and
// returned as warn, an errs.ErrSpoolCorrupt error; the cell is then a
// miss and is recomputed.
func LookupCell(spoolDir string, g experiments.GridSpec, cell experiments.GridCell) (snap metrics.Snapshot, ok bool, warn error) {
	key := g.CellKey(cell).Hash()
	path := cellPath(spoolDir, key)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return metrics.Snapshot{}, false, nil
	}
	var rec cellRecord
	if err == nil {
		rec, err = decodeCellRecord(data, key)
	}
	if err != nil {
		return metrics.Snapshot{}, false, Quarantine(path, err)
	}
	return rec.Metrics, true, nil
}

// WriteCell records the metrics of cell of grid g in spoolDir.
func WriteCell(spoolDir string, g experiments.GridSpec, cell experiments.GridCell, snap metrics.Snapshot) error {
	rec := cellRecord{CellKey: g.CellKey(cell), Metrics: snap}
	if err := writeJSONAtomic(cellPath(spoolDir, rec.Hash()), rec); err != nil {
		return fmt.Errorf("recording cell %s: %w", cell.Name(), err)
	}
	return nil
}
