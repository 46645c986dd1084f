package server

import (
	"crypto/sha256"
	"encoding/hex"
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
// as "<spool>/cells/<key>.json". The key is the hex sha256 of the
// canonical JSON of what the cell's metrics are a pure function of: the
// digest epoch, the normalized spec less the fields that only choose
// where, when or on which engine a cell runs, and the cell's full-grid
// index. tcsimd and the fleet coordinator share the format, so resuming
// a job, resubmitting it under a new ID or running an overlapping grid
// replays the recorded cells instead of simulating them.
// sim.SnapshotVersion is not part of the key: it versions the .snap
// encoding, and no record holds one.
//
// A record is immutable: concurrent writers of one key write identical
// bytes, so nothing orders them, and nothing deletes them (removing
// cells/ costs only recomputation). Errored cells are never recorded.

const cellsDir = "cells"

// cellKey is everything a grid cell's metrics are a pure function of.
type cellKey struct {
	Epoch int     `json:"epoch"`
	Spec  JobSpec `json:"spec"`
	Index int     `json:"index"`
}

// cellRecord is one completed cell: its key's inputs, its identity in
// the grid and its metrics.
type cellRecord struct {
	cellKey
	Name    string           `json:"name"`
	Seed    int64            `json:"seed"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// newCellKey keys full-grid cell idx of the normalized spec norm. ID,
// Priority, Workers and Cells choose where and when a cell runs, and
// Engine how it runs (both engines give byte-identical metrics), never
// what it computes; every other spec field is part of the key.
func newCellKey(norm JobSpec, idx int) cellKey {
	norm.ID, norm.Priority, norm.Workers, norm.Cells, norm.Engine = "", 0, 0, nil, ""
	return cellKey{Epoch: experiments.DigestEpoch, Spec: norm, Index: idx}
}

// hash is the key's file-name stem.
func (k cellKey) hash() string {
	data, _ := json.Marshal(k) // strings and integers always marshal
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func cellPath(spoolDir, key string) string {
	return filepath.Join(spoolDir, cellsDir, key+spoolSuffix)
}

// decodeCellRecord parses the record stored under key and requires its
// own fields to hash to key: a record written by another build (another
// DigestEpoch), for another spec or cell, or copied under the wrong name
// is refused.
func decodeCellRecord(data []byte, key string) (cellRecord, error) {
	var rec cellRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return cellRecord{}, fmt.Errorf("parsing cell record: %w", err)
	}
	if got := rec.hash(); got != key {
		return cellRecord{}, fmt.Errorf("cell record's fields hash to %s, not to its name", got)
	}
	return rec, nil
}

// LookupCell returns the recorded metrics of cell, full-grid cell idx of
// the normalized spec norm, from spoolDir's records. ok is false on a
// miss. A record that fails to decode or names another cell than the
// grid does is quarantined and returned as warn, an errs.ErrSpoolCorrupt
// error; the cell is then a miss and is recomputed.
func LookupCell(spoolDir string, norm JobSpec, idx int, cell experiments.GridCell) (snap metrics.Snapshot, ok bool, warn error) {
	key := newCellKey(norm, idx).hash()
	path := cellPath(spoolDir, key)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return metrics.Snapshot{}, false, nil
	}
	var rec cellRecord
	if err == nil {
		rec, err = decodeCellRecord(data, key)
	}
	if err == nil && (rec.Name != cell.Name() || rec.Seed != cell.Seed) {
		err = fmt.Errorf("cell record is %q seed %d, grid says %q seed %d", rec.Name, rec.Seed, cell.Name(), cell.Seed)
	}
	if err != nil {
		return metrics.Snapshot{}, false, Quarantine(path, err)
	}
	return rec.Metrics, true, nil
}

// WriteCell records the metrics of cell, full-grid cell idx of the
// normalized spec norm, in spoolDir.
func WriteCell(spoolDir string, norm JobSpec, idx int, cell experiments.GridCell, snap metrics.Snapshot) error {
	rec := cellRecord{cellKey: newCellKey(norm, idx), Name: cell.Name(), Seed: cell.Seed, Metrics: snap}
	if err := writeJSONAtomic(cellPath(spoolDir, rec.hash()), rec); err != nil {
		return fmt.Errorf("recording cell %s: %w", cell.Name(), err)
	}
	return nil
}
